package main

import (
	"context"
	"fmt"
	"runtime"
	"time"
)

// An untraced run times set-ups at up to setupSamples points: the first
// builds the workload, the rest run on fresh instances spread over the
// timed phase. At each point set-ups run back to back until setupBurst
// has passed, so a cheap set-up is sampled several times; at least
// setupMinRuns are timed in all.
const (
	setupSamples = 16
	setupBurst   = 150 * time.Millisecond
	setupMinRuns = 5
)

// setupSampler times set-ups across the whole run, so setup_s, their
// fastTime, samples the host's speed over the run rather than at its start.
type setupSampler struct {
	// fresh makes a new instance of the workload to set up and close.
	fresh func() bench
	// every is the least time between two set-ups in the timed phase.
	every   time.Duration
	last    time.Time
	samples []float64
	// heap is the running phase's heap sampler, paused during a set-up.
	heap *heapSampler
	// wall and cpu are the time the timed phase spent in set-ups, which
	// the phase's elapsed and CPU time leave out.
	wall, cpu time.Duration
}

// time runs one set-up of b from a collected heap and records how long it
// took.
func (s *setupSampler) time(ctx context.Context, b bench) error {
	runtime.GC()
	t0 := time.Now()
	err := b.setup(ctx)
	s.samples = append(s.samples, time.Since(t0).Seconds())
	s.last = time.Now()
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	return nil
}

// once sets up and closes one fresh instance, and collects its garbage so
// the workload's heap samples do not see it.
func (s *setupSampler) once(ctx context.Context) error {
	b := s.fresh()
	err := s.time(ctx, b)
	b.close()
	runtime.GC()
	return err
}

// between is called by a workload between two timed operations. Once
// every has passed since the last set-up, it times a burst of set-ups of
// fresh instances, with heap sampling paused; the time it takes is not
// part of any operation. Outside an untraced timed phase it does nothing.
func (e *env) between(ctx context.Context) error {
	s := e.setups
	if s == nil || time.Since(s.last) < s.every {
		return nil
	}
	if s.heap != nil {
		s.heap.pause()
		defer s.heap.resume()
	}
	c0, t0 := cpuTime(), time.Now()
	defer func() {
		s.wall += time.Since(t0)
		s.cpu += cpuTime() - c0
	}()
	for time.Since(t0) < setupBurst {
		if err := s.once(ctx); err != nil {
			return err
		}
	}
	return nil
}
