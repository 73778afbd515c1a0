package main

import (
	"context"
	"fmt"
	"time"

	"tqsim"
)

// sweep-grid: PrepareSweep → RunPreparedSweep over a depolarizing grid ×
// repeats on qft_n12, one call at a time. Points over one plan share
// ideal-prefix snapshots, an executor path a single RunPlan never takes;
// each point is a tree run of its own, so this is also the timed workload
// of the TQSim tree executor and its kernels.
const (
	sweepCircuit = "qft_n12"
	sweepShots   = 500
	sweepRepeats = 2
	// sweepWarmShots sizes the set-up's warm-up point, and warmSeed seeds
	// it: a warm-up only touches the code paths, and at a fixed seed its
	// work, and so setup_s, does not vary with the workload seed's noise
	// draws (1.8x between seeds).
	sweepWarmShots = 100
	warmSeed       = 1
)

type sweepBench struct {
	e *env
	// first holds each point's first histogram, for the repeat check.
	first map[int]string
	// Traced-phase accumulators.
	runs, prefixHits, apps, outcomes int64
	lastCounts                       []map[uint64]int
}

func newSweepBench(e *env) bench { return &sweepBench{e: e, first: make(map[int]string)} }

func (b *sweepBench) spec(noReuse bool) *tqsim.SweepSpec {
	return &tqsim.SweepSpec{
		Circuit: sweepCircuit,
		Noise: []tqsim.SweepNoisePoint{
			{P1: 0.0002, P2: 0.001},
			{P1: 0.0005, P2: 0.002},
			{P1: 0.001, P2: 0.005},
		},
		Shots:    []int{sweepShots},
		Repeats:  sweepRepeats,
		Seed:     b.e.seed,
		CopyCost: treeCopyCost,
		Backend:  "statevec",
		NoReuse:  noReuse,
	}
}

// setup validates, expands and plans the grid, and warms up with a run of
// its first point at sweepWarmShots and warmSeed.
func (b *sweepBench) setup(ctx context.Context) error {
	if _, err := tqsim.PrepareSweep(b.spec(false)); err != nil {
		return err
	}
	warm := b.spec(false)
	warm.Noise, warm.Shots, warm.Repeats, warm.Seed = warm.Noise[:1], []int{sweepWarmShots}, 1, warmSeed
	prep, err := tqsim.PrepareSweep(warm)
	if err != nil {
		return err
	}
	_, err = tqsim.RunPreparedSweep(ctx, prep, 0, 1, nil)
	return err
}

// timed prepares and runs the whole sweep repeatedly until d has elapsed;
// each repetition is one operation and starts from a fresh PrepareSweep,
// as a caller submitting the sweep would. Every sweep repeats identical
// work, so outcomes_per_s takes each of its steps (the prepare, then each
// point in order) at its fastTime across the sweeps.
func (b *sweepBench) timed(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	p := &phase{}
	if tr != nil {
		b.runs, b.prefixHits, b.apps, b.outcomes = 0, 0, 0, 0
	}
	// steps[j] holds step j's time in every sweep; perSweep is the
	// outcomes of one sweep.
	var steps [][]float64
	var perSweep int64
	start := time.Now()
	for p.ops == 0 || time.Since(start) < d {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b.e.tally.attempt()
		t0 := time.Now()
		res, times, err := b.runOnce(ctx, tr, false)
		dt := time.Since(t0)
		if err != nil {
			b.e.tally.fail(err.Error())
			continue
		}
		var outcomes int64
		for _, pt := range res.Points {
			outcomes += int64(pt.Outcomes)
			b.checkPoint(pt)
		}
		p.wall += dt
		p.outcomes += outcomes
		p.ops++
		p.lat = append(p.lat, ms(dt))
		for j, t := range times {
			if j == len(steps) {
				steps = append(steps, nil)
			}
			steps[j] = append(steps[j], t.Seconds())
		}
		perSweep = outcomes
		if err := b.e.between(ctx); err != nil {
			return nil, err
		}
		if tr != nil {
			b.runs++
			b.prefixHits += res.PrefixReuseHits
			b.apps += res.GateApplications
			b.outcomes += outcomes
			b.lastCounts = b.lastCounts[:0]
			for _, pt := range res.Points {
				b.lastCounts = append(b.lastCounts, pt.Counts)
			}
		}
	}
	fast := 0.0
	for _, s := range steps {
		fast += fastTime(s)
	}
	if fast > 0 {
		p.fastRate = float64(perSweep) / fast
	}
	p.rows = []row{{name: "sweep_points_per_s", unit: "1/s",
		value: float64(p.ops) * float64(3*sweepRepeats) / p.wall.Seconds()}}
	return p, nil
}

// runOnce prepares and runs the sweep, and returns the time of each step:
// the prepare, then each point, which run one after another and are
// delimited by the per-point callback.
func (b *sweepBench) runOnce(ctx context.Context, tr *tracer, noReuse bool) (*tqsim.SweepResult, []time.Duration, error) {
	suffix := ""
	if noReuse {
		suffix = "/noreuse"
	}
	op := tr.begin("perfbench.sweep"+suffix, 0, "")
	defer op.end()
	sp := tr.begin("tqsim.PrepareSweep"+suffix, op.id(), "")
	t0 := time.Now()
	prep, err := tqsim.PrepareSweep(b.spec(noReuse))
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("PrepareSweep: %w", err)
	}
	last := time.Now()
	times := []time.Duration{last.Sub(t0)}
	onPoint := func(*tqsim.SweepPointResult) error {
		now := time.Now()
		times = append(times, now.Sub(last))
		last = now
		return nil
	}
	sp = tr.begin("tqsim.RunPreparedSweep"+suffix, op.id(), "")
	res, err := tqsim.RunPreparedSweep(ctx, prep, 0, prep.NumPoints(), onPoint)
	sp.end()
	if err != nil {
		return nil, nil, fmt.Errorf("RunPreparedSweep: %w", err)
	}
	return res, times, nil
}

// checkPoint books a point's histogram-sum check and its repeat check.
func (b *sweepBench) checkPoint(pt tqsim.SweepPointResult) {
	sum := 0
	for _, n := range pt.Counts {
		sum += n
	}
	b.e.tally.check(sum == pt.Outcomes && pt.Outcomes >= pt.Shots,
		fmt.Sprintf("sweep point %d: histogram sums to %d, reported %d outcomes for %d shots", pt.Index, sum, pt.Outcomes, pt.Shots))
	canon := canonicalCounts(pt.Counts)
	if prev, ok := b.first[pt.Index]; ok {
		b.e.tally.check(prev == canon, fmt.Sprintf("sweep point %d: repeat at the same seed changed the histogram", pt.Index))
		return
	}
	b.first[pt.Index] = canon
}

// finish, when traced, runs the sweep once with reuse off, checks every
// point's histogram is identical to the reuse-on run, and derives the
// sweep and prefix-reuse metrics.
func (b *sweepBench) finish(ctx context.Context, tr *tracer, layers map[string]float64) error {
	if tr == nil || b.runs == 0 {
		return nil
	}
	b.e.tally.attempt()
	off, _, err := b.runOnce(ctx, tr, true)
	if err != nil {
		b.e.tally.fail(err.Error())
		return nil
	}
	same := len(off.Points) == len(b.lastCounts)
	for i := 0; same && i < len(off.Points); i++ {
		same = canonicalCounts(off.Points[i].Counts) == canonicalCounts(b.lastCounts[i])
	}
	b.e.tally.check(same, "sweep: histograms differ with prefix reuse on and off")
	onApps := float64(b.apps) / float64(b.runs)
	layers["sweep.prepare_ms"] = medianMS(tr.durations("tqsim.PrepareSweep"))
	layers["sweep.run_ms"] = medianMS(tr.durations("tqsim.RunPreparedSweep"))
	layers["sweep.work_ratio"] = onApps / float64(off.GateApplications)
	layers["core.prefix_hits"] = float64(b.prefixHits) / float64(b.runs)
	layers["core.gate_apps_per_outcome.sweep"] = float64(b.apps) / float64(b.outcomes)
	fmt.Fprintf(b.e.log, "sweep: %.0f gate applications per sweep with reuse, %d without (ratio %.4f), %.0f prefix hits per sweep\n",
		onApps, off.GateApplications, layers["sweep.work_ratio"], layers["core.prefix_hits"])
	return nil
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return summarize(xs).Median
}

func (b *sweepBench) close() {}
