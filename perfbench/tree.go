package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"tqsim"
	"tqsim/internal/gate"
	"tqsim/internal/rng"
)

// The TQSim-versus-baseline probe and checks: PlanDCP → RunPlan (TQSim),
// then RunBaseline, under SycamoreNoise on the statevec backend. The probe
// covers three circuits of three kernel classes: controlled-phase runs
// (qft_n12), dense 2-qubit unitaries (qv_n12) and CX/CCX permutations
// (mul_n13, the CX/q20 regression path). It runs once in every traced run
// rather than as a timed workload: one call takes 1–4 s, too long to time
// steadily on a host whose speed halves for seconds at a time (README.md).
const (
	treeShots = 1000
	// treeCopyCost pins the DCP copy cost so every host builds the same
	// multi-level trees; the library default plans these circuits flat.
	treeCopyCost = 5
	// adderCircuit has a peaked output; its TQSim and baseline histograms
	// are compared against a sample-size-derived TV bound in every run.
	adderCircuit = "adder_n10_0"
	// adderShots sizes each adder tree's plan and the baseline run.
	adderShots = 2000
	// adderTrees TQSim trees, each at its own derived seed, are pooled for
	// the adder check: one tree's effective sample is only its first-level
	// arity (164 at 2000 shots).
	adderTrees = 10
	// tvAlpha is the false-positive budget of all TV checks in one run,
	// and tvChecks the number of them, so each is held to tvAlpha/tvChecks.
	tvAlpha  = 1e-4
	tvChecks = 1
	// tvBins caps the number of named ideal outcomes in the TV binning.
	tvBins = 7
	// idealFloor separates ideal outcomes from floating-point residue.
	idealFloor = 1e-9
)

// probeTree plans each tree circuit (timing PlanDCP and DecidePlan), runs
// the plan once through TQSim and the baseline once at the run's seed,
// checks both histograms, and derives the core, trajectory, partition and
// planner metrics. It prints the arity tuple DCP chose next to the
// library-default plan.
func probeTree(ctx context.Context, e *env, tr *tracer, layers map[string]float64) error {
	const (
		mib      = 1 << 20
		planReps = 9
	)
	noise := tqsim.SycamoreNoise()
	opts := tqsim.Options{Seed: e.seed, CopyCost: treeCopyCost, Backend: "statevec"}
	for _, name := range treeCircuits {
		c := tqsim.BenchmarkByName(name)
		if c == nil {
			return fmt.Errorf("unknown circuit %s", name)
		}
		var plan *tqsim.Plan
		for range planReps {
			sp := tr.begin("partition.PlanDCP/"+name, 0, "")
			plan = tqsim.PlanDCP(c, noise, treeShots, opts)
			sp.end()
			sp = tr.begin("tqsim.DecidePlan/"+name, 0, "")
			_, err := tqsim.DecidePlan(plan, noise, opts)
			sp.end()
			if err != nil {
				return fmt.Errorf("DecidePlan %s: %w", name, err)
			}
		}
		layers["partition.plan_us."+name] = medianUS(tr.durations("partition.PlanDCP/" + name))
		layers["planner.decide_us."+name] = medianUS(tr.durations("tqsim.DecidePlan/" + name))

		e.tally.attempt()
		sp := tr.begin("tqsim.RunPlan/"+name, 0, "")
		res, err := tqsim.RunPlanContext(ctx, plan, noise, opts)
		sp.end()
		if err != nil {
			e.tally.fail(fmt.Sprintf("RunPlan %s: %v", name, err))
			continue
		}
		checkHistogram(e.tally, name+"/tqsim", res.Counts, res.Outcomes, plan.TotalOutcomes())
		e.tally.attempt()
		sp = tr.begin("tqsim.RunBaseline/"+name, 0, "")
		bl, err := tqsim.RunBaselineBackend(c, noise, treeShots, opts)
		sp.end()
		if err != nil {
			e.tally.fail(fmt.Sprintf("RunBaseline %s: %v", name, err))
			continue
		}
		checkHistogram(e.tally, name+"/baseline", bl.Counts, bl.Shots, treeShots)

		tq, blt := tr.total("tqsim.RunPlan/"+name), tr.total("tqsim.RunBaseline/"+name)
		outcomes, shots := float64(res.Outcomes), float64(bl.Shots)
		usPerOutcome := float64(tq.Microseconds()) / outcomes
		usPerShot := float64(blt.Microseconds()) / shots
		layers["core.gate_apps_per_outcome."+name] = float64(res.GateApplications) / outcomes
		layers["core.copies_per_outcome."+name] = float64(res.StateCopies) / outcomes
		layers["core.work_ratio."+name] = (float64(res.GateApplications) / outcomes) / (float64(bl.GateApplications) / shots)
		layers["core.ns_per_gate_app."+name] = float64(tq.Nanoseconds()) / float64(res.GateApplications)
		layers["core.us_per_outcome."+name] = usPerOutcome
		layers["core.speedup."+name] = usPerShot / usPerOutcome
		layers["core.peak_state_mb."+name] = float64(res.PeakStateBytes) / mib
		layers["trajectory.ns_per_gate_app."+name] = float64(blt.Nanoseconds()) / float64(bl.GateApplications)
		layers["trajectory.us_per_shot."+name] = usPerShot
		gates := 0
		for _, g := range c.Gates {
			if g.Kind != gate.KindI {
				gates++
			}
		}
		layers["trajectory.noise_apps_per_shot."+name] = (float64(bl.GateApplications) - float64(gates)*shots) / shots
		flat := tqsim.PlanDCP(c, noise, treeShots, tqsim.Options{Seed: e.seed, Backend: "statevec"})
		fmt.Fprintf(e.log, "tree: %s at %d shots plans %s with CopyCost %d (%s at the library default): speedup %.3gx = baseline %.4g us/shot / TQSim %.4g us/outcome\n",
			name, treeShots, plan.Structure(), treeCopyCost, flat.Structure(), usPerShot/usPerOutcome, usPerShot, usPerOutcome)
	}
	return ctx.Err()
}

// checkHistogram books the check that a histogram sums to the outcomes
// reported and planned.
func checkHistogram(t *tally, key string, counts map[uint64]int, outcomes, want int) {
	sum := 0
	for _, n := range counts {
		sum += n
	}
	t.check(sum == outcomes && outcomes == want,
		fmt.Sprintf("%s: histogram sums to %d, reported %d, planned %d", key, sum, outcomes, want))
}

// checkAdder books the adder's TV check and histogram checks, then runs
// the first tree and the baseline again and checks that each repeats its
// histogram byte for byte at the same seed. Every run of every workload
// makes it after the timed phase.
func checkAdder(ctx context.Context, e *env, tr *tracer) {
	c := tqsim.BenchmarkByName(adderCircuit)
	noise := tqsim.SycamoreNoise()
	e.tally.attempt()
	if c == nil {
		e.tally.fail("unknown circuit " + adderCircuit)
		return
	}
	cmp, err := compareTQSim(ctx, tr, c, noise, noise, adderShots, adderTrees, e.seed)
	if err != nil {
		e.tally.fail(fmt.Sprintf("%s: %v", adderCircuit, err))
		return
	}
	for i, res := range cmp.trees {
		checkHistogram(e.tally, fmt.Sprintf("%s/tqsim/%d", adderCircuit, i), res.Counts, res.Outcomes, cmp.plan.TotalOutcomes())
	}
	checkHistogram(e.tally, adderCircuit+"/baseline", cmp.baseline.Counts, cmp.baseline.Shots, adderShots)
	e.tally.check(cmp.tv <= cmp.bound, fmt.Sprintf("%s: TQSim vs baseline TV %.4f exceeds bound %.4f", adderCircuit, cmp.tv, cmp.bound))
	fmt.Fprintf(e.log, "check: %s %d TQSim trees %s vs baseline %d shots: binned TV %.4f <= bound %.4f (k=%d, n_eff %d vs %d)\n",
		adderCircuit, adderTrees, cmp.plan.Structure(), cmp.baseline.Shots, cmp.tv, cmp.bound, cmp.k, cmp.n1, cmp.n2)

	e.tally.attempt()
	res, err := tqsim.RunPlanContext(ctx, cmp.plan, noise, adderTreeOpts(e.seed, 0))
	if err != nil {
		e.tally.fail(fmt.Sprintf("RunPlan %s: %v", adderCircuit, err))
		return
	}
	e.tally.check(canonicalCounts(res.Counts) == canonicalCounts(cmp.trees[0].Counts), adderCircuit+": TQSim repeat at the same seed changed the histogram")
	e.tally.attempt()
	bl, err := tqsim.RunBaselineBackend(c, noise, adderShots, adderTreeOpts(e.seed, adderTrees))
	if err != nil {
		e.tally.fail(fmt.Sprintf("RunBaseline %s: %v", adderCircuit, err))
		return
	}
	e.tally.check(canonicalCounts(bl.Counts) == canonicalCounts(cmp.baseline.Counts), adderCircuit+": baseline repeat at the same seed changed the histogram")
}

// adderTreeOpts are the options of the adder check's run i: trees
// 0..adderTrees-1, then the baseline, each at its own derived seed so the
// pooled samples are independent.
func adderTreeOpts(seed uint64, i int) tqsim.Options {
	return tqsim.Options{Seed: rng.SeedAt(seed, uint64(i)), CopyCost: treeCopyCost, Backend: "statevec"}
}

// canonicalCounts renders a histogram in key order, so two histograms
// compare equal exactly when their counts are identical.
func canonicalCounts(counts map[uint64]int) string {
	keys := make([]uint64, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%d:%d,", k, counts[k])
	}
	return sb.String()
}

// tvComparison is one TQSim-vs-baseline distribution check.
type tvComparison struct {
	plan     *tqsim.Plan
	trees    []*tqsim.TreeResult
	baseline *tqsim.BaselineResult
	// tv is the binned distance, bound its limit at k bins and effective
	// sample sizes n1 (pooled first-level arities) and n2 (baseline shots).
	tv, bound float64
	k, n1, n2 int
}

// compareTQSim runs trees TQSim trees of c under tqNoise, all on one plan
// for shots, and one baseline of shots under blNoise, each at its own
// derived seed, and measures the pooled trees against the baseline, binned
// by c's most likely ideal outcomes.
func compareTQSim(ctx context.Context, tr *tracer, c *tqsim.Circuit, tqNoise, blNoise *tqsim.NoiseModel, shots, trees int, seed uint64) (*tvComparison, error) {
	out := &tvComparison{plan: tqsim.PlanDCP(c, tqNoise, shots, adderTreeOpts(seed, 0))}
	pooled := make(map[uint64]int)
	for i := range trees {
		sp := tr.begin("tqsim.RunPlan/"+adderCircuit, 0, "")
		res, err := tqsim.RunPlanContext(ctx, out.plan, tqNoise, adderTreeOpts(seed, i))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("RunPlan: %w", err)
		}
		for x, n := range res.Counts {
			pooled[x] += n
		}
		out.trees = append(out.trees, res)
	}
	sp := tr.begin("tqsim.RunBaseline/"+adderCircuit, 0, "")
	bl, err := tqsim.RunBaselineBackend(c, blNoise, shots, adderTreeOpts(seed, trees))
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("RunBaseline: %w", err)
	}
	out.baseline = bl
	bins := idealBins(tqsim.IdealDistribution(c), tvBins)
	out.k, out.n1, out.n2 = len(bins)+1, trees*out.plan.Arities[0], bl.Shots
	out.tv = binnedTV(pooled, bl.Counts, bins, out.k)
	out.bound = tvBound(out.k, float64(out.n1), float64(out.n2), tvAlpha/tvChecks)
	return out, nil
}

// idealBins maps the m most likely outcomes of the ideal distribution (ties
// to the lower index, zero-probability outcomes never) to bins 0..m-1.
func idealBins(ideal tqsim.Dist, m int) map[uint64]int {
	idx := make([]int, 0, len(ideal.P))
	for i, p := range ideal.P {
		if p > idealFloor {
			idx = append(idx, i)
		}
	}
	sort.SliceStable(idx, func(a, b int) bool { return ideal.P[idx[a]] > ideal.P[idx[b]] })
	bins := make(map[uint64]int)
	for j, i := range idx[:min(m, len(idx))] {
		bins[uint64(i)] = j
	}
	return bins
}

func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d.Nanoseconds()) / 1e3
	}
	return summarize(xs).Median
}
