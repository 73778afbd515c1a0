package main

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// ladder lists the percentiles the report may quote as "top", highest
// first. A percentile is quotable only when at least minBeyond samples lie
// above it, so a single outlier can never be the reported tail.
var ladder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is the number of samples that must lie above a quoted
// percentile.
const minBeyond = 10

// quantile returns the exact nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice: the smallest sample with at least q of the samples at
// or below it.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	r := rankOf(len(sorted), q)
	return sorted[r-1]
}

// rankOf is the 1-based nearest rank of quantile q among n samples.
func rankOf(n int, q float64) int {
	// The epsilon keeps 0.99*100 = 98.99999… from rounding up a whole rank.
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return max(1, min(r, n))
}

// topPercentile returns the highest ladder percentile with at least
// minBeyond samples strictly above its rank, and that percentile's value.
// With fewer than 2*minBeyond samples no ladder entry qualifies; the
// median is returned then, with ok false, so callers can say so.
func topPercentile(sorted []float64) (pct, value float64, ok bool) {
	n := len(sorted)
	for _, p := range ladder {
		if n-rankOf(n, p/100) >= minBeyond {
			return p, quantile(sorted, p/100), true
		}
	}
	return 50, quantile(sorted, 0.5), false
}

// fastTime is the nearest-rank 10th percentile of repeated timings of
// identical work. The library throughputs and set-up time come from it:
// this benchmark's host swings between a fast state, whose speed repeats
// within a few percent, and a slow one about half as fast that can hold
// for most of a run; the slow samples measure other tenants more than the
// code, and the fast tenth of a run's samples repeats from run to run
// where the mean does not.
func fastTime(samples []float64) float64 {
	s := slices.Clone(samples)
	sort.Float64s(s)
	return quantile(s, 0.1)
}

// fastRateOf is the nearest-rank 90th percentile of rates measured over
// equal slices of a run, the counterpart of fastTime for rates.
func fastRateOf(rates []float64) float64 {
	s := slices.Clone(rates)
	sort.Float64s(s)
	return quantile(s, 0.9)
}

// summary is a timing's report form: median, top percentile and count.
type summary struct {
	N      int
	Median float64
	TopPct float64
	Top    float64
	TopOK  bool
}

func summarize(samples []float64) summary {
	s := slices.Clone(samples)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5)}
	out.TopPct, out.Top, out.TopOK = topPercentile(s)
	return out
}

// tvBound is the largest total-variation distance between two independent
// empirical histograms of one distribution, binned into k bins, that is
// consistent with sampling error at false-positive probability delta.
//
// n1 and n2 are effective sample sizes: the number of independent,
// equally weighted sampling units behind each histogram. A TQSim tree's
// leaves under one first-level node share that node's noise draws, so a
// tree contributes its first-level arity, not its leaf count; a pool of
// trees run at independent seeds contributes the sum of their arities. A
// baseline's size is its shots.
//
// Derivation: a unit's share of bin i lies in [0,1] with mean p_i, so
// d_i = p̂1_i − p̂2_i has mean 0 and variance at most p_i·(1/n1 + 1/n2);
// E|d_i| ≤ √Var, and Cauchy–Schwarz over the k bins gives
// E[TV] = ½·Σ E|d_i| ≤ ½·√(k·(1/n1 + 1/n2)). Changing one unit moves at
// most 1/n1 (1/n2) of mass, so McDiarmid gives
// P(TV ≥ E + t) ≤ exp(−2t² / (1/n1 + 1/n2)).
func tvBound(k int, n1, n2 float64, delta float64) float64 {
	s := 1/n1 + 1/n2
	return 0.5*math.Sqrt(float64(k)*s) + math.Sqrt(math.Log(1/delta)/2*s)
}

// binnedTV is the total-variation distance between two histograms after
// mapping each outcome through bin (outcomes bin does not name fall in
// bin k-1, the "rest" bin).
func binnedTV(a, b map[uint64]int, bins map[uint64]int, k int) float64 {
	pa, pb := binned(a, bins, k), binned(b, bins, k)
	tv := 0.0
	for i := range pa {
		tv += math.Abs(pa[i] - pb[i])
	}
	return tv / 2
}

// binned returns the histogram's share in each of the k bins. Counts are
// summed as integers, so the result does not depend on map order.
func binned(counts map[uint64]int, bins map[uint64]int, k int) []float64 {
	n := make([]int, k)
	total := 0
	for x, c := range counts {
		i, ok := bins[x]
		if !ok {
			i = k - 1
		}
		n[i] += c
		total += c
	}
	p := make([]float64, k)
	for i := range p {
		p[i] = float64(n[i]) / float64(total)
	}
	return p
}

// tally counts attempted operations and failures for failed_share. Every
// library call, request and output check counts as attempted; every
// failure of any kind (status, transport, stream error record, library
// error, failed output check) counts once. The first few failure reasons
// are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	reasons   []string
}

const keepReasons = 8

func (t *tally) attempt() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

// fail books a failure of an operation already counted as attempted.
func (t *tally) fail(reason string) {
	t.mu.Lock()
	t.failed++
	if len(t.reasons) < keepReasons {
		t.reasons = append(t.reasons, reason)
	}
	t.mu.Unlock()
}

// check counts one output check as an attempted operation and books it
// failed when ok is false.
func (t *tally) check(ok bool, reason string) {
	t.attempt()
	if !ok {
		t.fail(reason)
	}
}

func (t *tally) share() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
