package main

import (
	"runtime"
	"sync"
	"time"
)

// heapSampler samples runtime.MemStats.HeapInuse every interval while it
// runs and keeps the largest sample of each heapWindow. The reported peak
// is the median of those window maxima: a buffer the program holds shows
// in every window, while the moment a collection happens to finish, which
// varies run to run, moves only the largest single sample.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	// mu guards windows; pause holds it, so no sample is taken until
	// resume.
	mu      sync.Mutex
	start   time.Time
	windows []float64
}

// heapWindow is the span of one heap window.
const heapWindow = time.Second

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{done: make(chan struct{}), start: time.Now()}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) pause()  { h.mu.Lock() }
func (h *heapSampler) resume() { h.mu.Unlock() }

func (h *heapSampler) sample() {
	h.mu.Lock()
	defer h.mu.Unlock()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	w := int(time.Since(h.start) / heapWindow)
	for len(h.windows) <= w {
		h.windows = append(h.windows, 0)
	}
	h.windows[w] = max(h.windows[w], float64(m.HeapInuse))
}

// stop ends sampling and returns the median window peak in bytes. A
// window with no sample (all of it spent paused) does not count.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	peaks := make([]float64, 0, len(h.windows))
	for _, p := range h.windows {
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	return uint64(summarize(peaks).Median)
}
