// Command perfbench is tqsim's layered benchmark. One run executes one
// workload for a fixed time and prints a human-readable report followed by
// one JSON result line:
//
//	go run . --workload sweep-grid --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics, measured with
// tracing off. With --trace 1 the run splits its time into an untraced and
// a traced half, records spans around every call the benchmark makes into
// the system's modules, writes the spans, a self-time table and a CPU
// profile under --out, and the JSON carries the per-layer metrics derived
// from them. See README.md for the metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"
)

// phase is what one timed phase of a workload measured.
type phase struct {
	// wall is the time the phase's operations took: the sum of call times
	// for the sequential library workloads, elapsed time for serve.
	wall time.Duration
	// outcomes is the number of histogram entries the system returned.
	outcomes int64
	// fastRate is what outcomes_per_s reports: outcomes per second over
	// the fast part of repeated identical measurements (see fastTime and
	// each workload's timed). The report also prints outcomesPerS, the
	// plain total over wall.
	fastRate float64
	// ops is the number of operations completed; lat holds each one's
	// latency in milliseconds.
	ops int64
	lat []float64
	// rows are workload-specific report lines beyond the common metrics.
	rows []row
	// peakHeap is the largest HeapInuse sampled during the phase, in bytes.
	peakHeap uint64
	// elapsed and cpu are the phase's wall-clock and process CPU time.
	elapsed, cpu time.Duration
}

func (p *phase) outcomesPerS() float64 {
	if p.wall <= 0 {
		return 0
	}
	return float64(p.outcomes) / p.wall.Seconds()
}

// row is one line of the human-readable report.
type row struct {
	name, unit string
	value      float64
	// dist, when set, is the per-sample distribution behind value.
	dist *summary
}

// bench is one workload instance. setup brings it to a ready state; timed
// runs operations for about d and measures them, calling env.between
// between operations; finish runs the output checks that need more than
// the timed operations, and in traced runs (tr non-nil) adds per-layer
// metrics.
type bench interface {
	setup(ctx context.Context) error
	timed(ctx context.Context, d time.Duration, tr *tracer) (*phase, error)
	finish(ctx context.Context, tr *tracer, layers map[string]float64) error
	close()
}

// env is what every workload shares: the seed, the failure tally and the
// report writer.
type env struct {
	seed  uint64
	tally *tally
	log   io.Writer
	// setups, when set, times set-ups between the timed phase's
	// operations; see between.
	setups *setupSampler
}

// workloads maps each workload's name to its constructor.
var workloads = map[string]func(*env) bench{
	"sweep-grid": newSweepBench,
	"serve-mix":  newServeBench,
}

// runLimit bounds a whole run, so a hang becomes an error well inside the
// three minutes a run may take.
const runLimit = 150 * time.Second

func main() {
	workload := flag.String("workload", "", "workload name: sweep-grid, serve-mix")
	seed := flag.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build/perfbench", "directory for span files and CPU profiles")
	flag.Parse()
	w, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	e := &env{seed: *seed, tally: &tally{}, log: os.Stdout}
	res, err := run(e, func() bench { return w(e) }, *workload, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run sets up the workload, runs its timed phase and checks, and returns
// the result line. fresh makes a new instance of the workload.
func run(e *env, fresh func() bench, name string, d time.Duration, traced bool, outDir string) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	b := fresh()
	defer b.close()
	setups := &setupSampler{fresh: fresh, every: d / setupSamples}
	if err := setups.time(ctx, b); err != nil {
		return nil, err
	}

	metrics := make(map[string]metricValue)
	if !traced {
		e.setups = setups
		p, err := e.sampled(func() (*phase, error) { return b.timed(ctx, d, nil) })
		e.setups = nil
		if err != nil {
			return nil, err
		}
		for len(setups.samples) < setupMinRuns {
			if err := setups.once(ctx); err != nil {
				return nil, err
			}
		}
		setup := summarize(setups.samples)
		setupFast := fastTime(setups.samples)
		if err := b.finish(ctx, nil, nil); err != nil {
			return nil, err
		}
		checkAdder(ctx, e, nil)
		lat := summarize(p.lat)
		vals := map[string]float64{
			"setup_s":        setupFast,
			"outcomes_per_s": p.fastRate,
			"peak_heap_mb":   float64(p.peakHeap) / (1 << 20),
		}
		fmt.Fprintf(e.log, "workload %s seed %d: timed %.2fs, %d operations\n", name, e.seed, p.wall.Seconds(), p.ops)
		rows := []row{
			{name: "setup_s", unit: "s", value: setupFast, dist: &setup},
			{name: "outcomes_per_s", unit: "1/s", value: vals["outcomes_per_s"]},
			{name: "outcomes_per_s_all", unit: "1/s", value: p.outcomesPerS()},
			{name: "latency_ms", unit: "ms", value: lat.Median, dist: &lat},
			{name: "peak_heap_mb", unit: "MiB", value: vals["peak_heap_mb"]},
		}
		rows = append(rows, p.rows...)
		rows = append(rows,
			row{name: "timed_elapsed_s", unit: "s", value: p.elapsed.Seconds()},
			row{name: "timed_cpu_s", unit: "s", value: p.cpu.Seconds()})
		rows = append(rows, row{name: "failed_share", unit: "ratio", value: e.tally.share()})
		printRows(e.log, rows)
		for _, m := range endToEnd {
			metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
		}
	} else {
		layers, err := runTraced(ctx, e, b, name, d, outDir)
		if err != nil {
			return nil, err
		}
		var missing []string
		for _, m := range perLayer {
			v, ok := layers[m.Name]
			if !ok {
				missing = append(missing, m.Name)
			}
			metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		}
		fmt.Fprintf(e.log, "per-layer metrics (%d), measured with tracing on:\n", len(perLayer))
		for _, m := range perLayer {
			fmt.Fprintf(e.log, "  %-44s %14.6g %s\n", m.Name, metrics[m.Name].Value, m.Unit)
		}
		if len(missing) > 0 {
			fmt.Fprintf(e.log, "not exercised by %s, reported as 0: %d metrics (%s ... )\n", name, len(missing), missing[0])
		}
	}
	e.tally.mu.Lock()
	defer e.tally.mu.Unlock()
	for _, r := range e.tally.reasons {
		fmt.Fprintf(os.Stderr, "perfbench: failure: %s\n", r)
	}
	return &result{
		Correct:   e.tally.failed == 0,
		Attempted: max(e.tally.attempted, 1),
		Failed:    e.tally.failed,
		Metrics:   metrics,
	}, nil
}

// runTraced runs an untraced half and a traced half of the timed phase,
// then the workload's traced checks and the shared module probes, and
// writes the spans, their self-time table and the traced half's CPU
// profile to outDir/<workload>-seed<n>/.
func runTraced(ctx context.Context, e *env, b bench, name string, d time.Duration, outDir string) (map[string]float64, error) {
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", name, e.seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	half := d / 2
	plain, err := e.sampled(func() (*phase, error) { return b.timed(ctx, half, nil) })
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	defer prof.Close()
	if err := pprof.StartCPUProfile(prof); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	readMemStats(tr, &m0)
	traced, err := e.sampled(func() (*phase, error) { return b.timed(ctx, half, tr) })
	readMemStats(tr, &m1)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := prof.Close(); err != nil {
		return nil, err
	}

	layers := make(map[string]float64)
	if traced.ops > 0 {
		layers["runtime.alloc_mb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / float64(traced.ops)
		layers["runtime.gc_cycles_per_op"] = float64(m1.NumGC-m0.NumGC) / float64(traced.ops)
	}
	if r0 := plain.outcomesPerS(); r0 > 0 {
		layers["trace.overhead_pct"] = (r0 - traced.outcomesPerS()) / r0 * 100
	}
	if err := b.finish(ctx, tr, layers); err != nil {
		return nil, err
	}
	checkAdder(ctx, e, tr)
	if err := probeModules(ctx, e, tr, layers); err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	layers["trace.spans"] = float64(len(spans))
	fmt.Fprintf(e.log, "outcomes_per_s untraced %.6g, traced %.6g: tracing overhead %.2f%%\n",
		plain.outcomesPerS(), traced.outcomesPerS(), layers["trace.overhead_pct"])

	if err := writeFile(filepath.Join(dir, "spans.json"), func(w io.Writer) error { return writeSpans(w, spans) }); err != nil {
		return nil, err
	}
	table := byName(spans)
	if err := writeFile(filepath.Join(dir, "self.txt"), func(w io.Writer) error { writeSelfTable(w, table); return nil }); err != nil {
		return nil, err
	}
	fmt.Fprintf(e.log, "trace written to %s (spans.json, self.txt, cpu.pprof); top self time:\n", dir)
	writeSelfTable(e.log, table[:min(len(table), 12)])
	return layers, nil
}

// readMemStats reads runtime.MemStats under a span (it stops the world).
func readMemStats(tr *tracer, m *runtime.MemStats) {
	sp := tr.begin("runtime.ReadMemStats", 0, "")
	runtime.ReadMemStats(m)
	sp.end()
}

// sampled runs one timed phase while sampling the heap. Set-ups timed
// between the phase's operations are left out of its elapsed and CPU time.
func (e *env) sampled(f func() (*phase, error)) (*phase, error) {
	hs := startHeapSampler(20 * time.Millisecond)
	var sw, sc time.Duration
	if s := e.setups; s != nil {
		s.heap, sw, sc = hs, s.wall, s.cpu
	}
	c0, t0 := cpuTime(), time.Now()
	p, err := f()
	elapsed, cpu := time.Since(t0), cpuTime()-c0
	peak := hs.stop()
	if err != nil {
		return nil, err
	}
	if s := e.setups; s != nil {
		s.heap = nil
		elapsed -= s.wall - sw
		cpu -= s.cpu - sc
	}
	p.peakHeap, p.elapsed, p.cpu = peak, elapsed, cpu
	return p, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRows renders the report: value, and for timings the median, the
// highest percentile with at least ten samples beyond it, and the count.
func printRows(w io.Writer, rows []row) {
	for _, r := range rows {
		if r.dist == nil {
			fmt.Fprintf(w, "  %-22s %14.6g %s\n", r.name, r.value, r.unit)
			continue
		}
		top := fmt.Sprintf("p%g %.6g", r.dist.TopPct, r.dist.Top)
		if !r.dist.TopOK {
			top = "no percentile above p50 has 10 samples beyond it"
		}
		fmt.Fprintf(w, "  %-22s %14.6g %s  (median %.6g, %s, n=%d)\n", r.name, r.value, r.unit, r.dist.Median, top, r.dist.N)
	}
}
