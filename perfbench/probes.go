package main

import (
	"context"
	"fmt"
	"math/cmplx"
	"runtime"
	"time"

	"tqsim"
	"tqsim/internal/gate"
	"tqsim/internal/statevec"
)

// probeTime is how long each throughput probe repeats its call.
const probeTime = 150 * time.Millisecond

// probeModules measures the layers every workload shares, the same way in
// every traced run: gate kernels and noise-free circuit replays
// (statevec), TQSim against the baseline (core, trajectory, partition,
// planner; see probeTree), suite lookup (workloads), digests (circuit) and
// the stabilizer engine.
func probeModules(ctx context.Context, e *env, tr *tracer, layers map[string]float64) error {
	for _, k := range kernels() {
		for _, w := range kernelWidths {
			st := statevec.NewZero(w)
			apply := k.apply(w)
			apply(st) // first touch of the pages, outside the timing
			name := fmt.Sprintf("%s.q%d", k.name, w)
			iters := repeatFor(tr, "statevec."+name, func() { apply(st) })
			layers["statevec.amps_per_s."+name] = float64(st.Dim()) * iters / tr.total("statevec."+name).Seconds()
			layers["statevec.bytes_per_call."+name] = k.bytes * float64(st.Dim())
		}
	}
	for _, name := range treeCircuits {
		c := tqsim.BenchmarkByName(name)
		st := statevec.NewZero(c.NumQubits)
		gates := 0
		for _, g := range c.Gates {
			if g.Kind != gate.KindI {
				gates++
			}
		}
		replay := func() {
			st.ResetZero()
			for _, g := range c.Gates {
				if g.Kind != gate.KindI {
					st.Apply(g)
				}
			}
		}
		iters := repeatFor(tr, "statevec.Apply/"+name, replay)
		layers["statevec.amps_per_s."+name] = float64(gates) * float64(st.Dim()) * iters / tr.total("statevec.Apply/"+name).Seconds()
	}

	if err := probeTree(ctx, e, tr, layers); err != nil {
		return err
	}

	for _, name := range mixCircuits {
		const reps = 3
		var m0, m1 runtime.MemStats
		var c *tqsim.Circuit
		readMemStats(tr, &m0)
		for range reps {
			sp := tr.begin("tqsim.BenchmarkByName/"+name, 0, "")
			c = tqsim.BenchmarkByName(name)
			sp.end()
		}
		readMemStats(tr, &m1)
		if c == nil {
			return fmt.Errorf("unknown mix circuit %s", name)
		}
		layers["workloads.lookup_ms."+name] = medianMS(tr.durations("tqsim.BenchmarkByName/" + name))
		layers["workloads.lookup_allocs."+name] = float64(m1.Mallocs-m0.Mallocs) / reps
		layers["workloads.lookup_kb."+name] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / reps
		iters := repeatFor(tr, "tqsim.CircuitDigest/"+name, func() { _ = tqsim.CircuitDigest(c) })
		layers["circuit.digest_us."+name] = float64(tr.total("tqsim.CircuitDigest/"+name).Microseconds()) / iters
	}

	bv := tqsim.BenchmarkByName("bv_n10")
	const stabShots = 2000
	var outcomes int
	var runErr error
	repeatFor(tr, "tqsim.RunBackend/bv_n10", func() {
		res, err := tqsim.RunBackend(bv, tqsim.NoiseByName("DC"), stabShots, tqsim.Options{Seed: e.seed})
		e.tally.attempt()
		switch {
		case err != nil:
			e.tally.fail("RunBackend bv_n10: " + err.Error())
			runErr = err
		case res.BackendName != "stabilizer":
			e.tally.fail("RunBackend bv_n10 resolved to " + res.BackendName + ", not stabilizer")
		default:
			outcomes += res.Outcomes
		}
	})
	if runErr == nil {
		layers["stabilizer.outcomes_per_s.bv_n10"] = float64(outcomes) / tr.total("tqsim.RunBackend/bv_n10").Seconds()
	}
	return ctx.Err()
}

// repeatFor calls f until probeTime has passed, under one span covering
// every call (a span per call would cost as much as a small kernel), and
// returns the number of calls.
func repeatFor(tr *tracer, name string, f func()) float64 {
	n := 0
	sp := tr.begin(name, 0, "")
	start := time.Now()
	for n == 0 || time.Since(start) < probeTime {
		f()
		n++
	}
	sp.end()
	return float64(n)
}

// kernel is one gate kernel the statevec probe times, with the bytes one
// call moves per amplitude of the state, computed from its access pattern:
// re and im planes of 8 bytes each, read and written, over the whole state
// (32) or over the half its control or anchor selects (16).
type kernel struct {
	name  string
	bytes float64
	apply func(width int) func(*statevec.State)
}

// kernels mirrors cmd/benchreport's kernel set so the numbers line up with
// the BENCH files, at both probe widths.
func kernels() []kernel {
	g := func(mk func(w int) gate.Gate) func(int) func(*statevec.State) {
		return func(w int) func(*statevec.State) {
			gt := mk(w)
			return func(st *statevec.State) { st.Apply(gt) }
		}
	}
	return []kernel{
		{"H", 32, g(func(w int) gate.Gate { return gate.New(gate.KindH, w/2) })},
		{"CX", 16, g(func(w int) gate.Gate { return gate.New(gate.KindCX, w/2, w/2-1) })},
		{"RZ", 32, g(func(w int) gate.Gate { return gate.NewParam(gate.KindRZ, []float64{0.3}, w/2) })},
		{"Apply2Q", 16, g(func(w int) gate.Gate { return gate.NewParam(gate.KindCRX, []float64{0.4}, w/2, w/2-1) })},
		{"PhaseRun8", 16, func(w int) func(*statevec.State) {
			qs := phaseRunQubits[w]
			phases := make([]complex128, len(qs))
			for i := range phases {
				phases[i] = cmplx.Exp(complex(0, 0.1*float64(i+1)))
			}
			return func(st *statevec.State) { st.ApplyPhaseRun(w/2, qs, phases) }
		}},
	}
}

// phaseRunQubits are the eight controlled-phase partners of anchor w/2 at
// each probe width (a QFT row's worth; benchreport's set at 20 qubits).
var phaseRunQubits = map[int][]int{
	12: {1, 2, 3, 4, 5, 7, 8, 10},
	20: {2, 4, 6, 8, 12, 14, 16, 18},
}
