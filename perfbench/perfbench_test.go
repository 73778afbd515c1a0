package main

import (
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"tqsim"
	"tqsim/internal/loadgen"
	"tqsim/internal/noise"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i + 1)
	}
	return out
}

func TestQuantileNearestRank(t *testing.T) {
	xs := seq(10)
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.51, 6}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(seq(1000), 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (0.99*1000 must not round up a rank)", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
	// From unsorted input, by nearest rank: p10 of 1..20 is rank 2, p90
	// rank 18, and p10 of fewer than ten samples the smallest.
	if got := fastTime([]float64{20, 1, 19, 2, 18, 3, 17, 4, 16, 5, 15, 6, 14, 7, 13, 8, 12, 9, 11, 10}); got != 2 {
		t.Errorf("fastTime of 1..20 = %g, want 2", got)
	}
	if got := fastRateOf([]float64{20, 1, 19, 2, 18, 3, 17, 4, 16, 5, 15, 6, 14, 7, 13, 8, 12, 9, 11, 10}); got != 18 {
		t.Errorf("fastRateOf of 1..20 = %g, want 18", got)
	}
	if got := fastTime([]float64{5, 3, 9}); got != 3 {
		t.Errorf("fastTime of 3 samples = %g, want the smallest, 3", got)
	}
}

func TestTopPercentileKeepsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		pct    float64
		ok     bool
		beyond int
	}{
		{1, 50, false, 0},
		{19, 50, false, 9},
		{20, 50, true, 10},
		{100, 90, true, 10},
		{999, 95, true, 49},
		{1000, 99, true, 10},
		{9999, 99, true, 99},
		{10000, 99.9, true, 10},
	} {
		xs := seq(c.n)
		pct, v, ok := topPercentile(xs)
		if pct != c.pct || ok != c.ok {
			t.Errorf("n=%d: top percentile p%g ok=%v, want p%g ok=%v", c.n, pct, ok, c.pct, c.ok)
			continue
		}
		if beyond := c.n - int(v); beyond != c.beyond {
			t.Errorf("n=%d: %d samples beyond p%g, want %d", c.n, beyond, pct, c.beyond)
		}
	}
}

func TestSummarizeDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := summarize(xs)
	if s.N != 3 || s.Median != 2 || !reflect.DeepEqual(xs, []float64{3, 1, 2}) {
		t.Fatalf("summarize = %+v, input now %v", s, xs)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50]; a third runs past the
		// parent's end and counts only up to it.
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms},
		// A grandchild reduces its own parent only.
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{1: 50 * ms, 2: 20 * ms, 3: 20 * ms, 4: 30 * ms, 5: 10 * ms}
	if !reflect.DeepEqual(self, want) {
		t.Fatalf("self times = %v, want %v", self, want)
	}
	stats := byName(spans)
	if stats[0].Name != "parent" || stats[0].Self != 50*ms || stats[0].Total != 100*ms {
		t.Fatalf("byName[0] = %+v, want parent with self 50ms of 100ms", stats[0])
	}
}

func TestTracerNilIsNoOp(t *testing.T) {
	var tr *tracer
	sp := tr.begin("x", 0, "")
	sp.end()
	if sp.id() != 0 || tr.snapshot() != nil || tr.total("x") != 0 {
		t.Fatal("a nil tracer recorded something")
	}
	tr = newTracer()
	root := tr.begin("root", 0, "r1")
	child := tr.begin("child", root.id(), "r1")
	child.end()
	root.end()
	got := tr.snapshot()
	if len(got) != 2 || got[0].Name != "root" || got[1].Parent != got[0].ID || got[1].Req != "r1" {
		t.Fatalf("spans = %+v", got)
	}
}

func TestTVBoundFormula(t *testing.T) {
	// k=2, n1=n2=100, delta=1e-6: ½√(2·(2/100)) + √(ln(1e6)/2·(2/100)).
	want := 0.5*math.Sqrt(0.04) + math.Sqrt(math.Log(1e6)/2*0.02)
	if got := tvBound(2, 100, 100, 1e-6); math.Abs(got-want) > 1e-12 {
		t.Fatalf("tvBound = %v, want %v", got, want)
	}
	if tvBound(2, 400, 400, 1e-6) >= tvBound(2, 100, 100, 1e-6) {
		t.Fatal("bound does not shrink with sample size")
	}
	if tvBound(8, 100, 100, 1e-6) <= tvBound(2, 100, 100, 1e-6) {
		t.Fatal("bound does not grow with bin count")
	}
}

// draw samples n outcomes from p.
func draw(r *rand.Rand, p []float64, n int) map[uint64]int {
	out := make(map[uint64]int)
	for range n {
		u, k := r.Float64(), 0
		for ; k < len(p)-1 && u >= p[k]; k++ {
			u -= p[k]
		}
		out[uint64(k)]++
	}
	return out
}

func TestTVBoundHoldsAndDetects(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := []float64{0.7, 0.2, 0.06, 0.04}
	bins := map[uint64]int{0: 0, 1: 1, 2: 2} // outcome 3 falls in the rest bin
	const k = 4
	bound := tvBound(k, 150, 2000, 1e-6)
	for i := range 200 {
		tv := binnedTV(draw(r, p, 150), draw(r, p, 2000), bins, k)
		if tv > bound {
			t.Fatalf("trial %d: same-distribution TV %.4f exceeds bound %.4f", i, tv, bound)
		}
	}
	biased := []float64{0.3, 0.5, 0.1, 0.1}
	if tv := binnedTV(draw(r, p, 2000), draw(r, biased, 2000), bins, k); tv <= tvBound(k, 2000, 2000, 1e-6) {
		t.Fatalf("a TV-0.4 bias (measured %.4f) passed the bound", tv)
	}
}

// TestTVCheckCatchesDroppedNoise runs the adder check as the benchmark
// does, then with TQSim given a third less noise than the baseline, as a
// tree executor that ran one level of a three-level tree noise-free would
// sample. The bound must pass the first, fail the second, and stay at or
// below 0.2.
func TestTVCheckCatchesDroppedNoise(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	ctx := context.Background()
	c := tqsim.BenchmarkByName(adderCircuit)
	full := tqsim.SycamoreNoise()
	ok, err := compareTQSim(ctx, nil, c, full, full, adderShots, adderTrees, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ok.bound > 0.2 || ok.tv > ok.bound {
		t.Fatalf("unbiased TQSim: TV %.4f, bound %.4f (k=%d, n_eff %d vs %d); want TV <= bound <= 0.2", ok.tv, ok.bound, ok.k, ok.n1, ok.n2)
	}
	weak := tqsim.DepolarizingNoise(noise.SycamoreOneQubitError*2/3, noise.SycamoreTwoQubitError*2/3)
	bad, err := compareTQSim(ctx, nil, c, weak, full, adderShots, adderTrees, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bad.tv <= bad.bound {
		t.Fatalf("TQSim missing a third of the noise passed: TV %.4f <= bound %.4f", bad.tv, bad.bound)
	}
	t.Logf("unbiased TV %.4f, noise-dropping TV %.4f, bound %.4f", ok.tv, bad.tv, ok.bound)
}

func TestBinnedTV(t *testing.T) {
	a := map[uint64]int{0: 6, 1: 2, 5: 2}
	b := map[uint64]int{0: 3, 1: 3, 7: 4}
	// Bins {0}, {1}, rest: a = (.6,.2,.2), b = (.3,.3,.4) → TV = (.3+.1+.2)/2.
	if got := binnedTV(a, b, map[uint64]int{0: 0, 1: 1}, 3); math.Abs(got-0.3) > 1e-12 {
		t.Fatalf("binnedTV = %v, want 0.3", got)
	}
}

func TestFailedShareCountsEveryKind(t *testing.T) {
	var tl tally
	if tl.share() != 0 {
		t.Fatal("empty tally has a failed share")
	}
	for range 6 {
		tl.attempt()
	}
	tl.fail("status 503")
	tl.check(true, "")
	tl.check(false, "histogram sum")
	if tl.attempted != 8 || tl.failed != 2 || tl.share() != 0.25 {
		t.Fatalf("tally = %d/%d (share %g), want 2/8", tl.failed, tl.attempted, tl.share())
	}
	if len(tl.reasons) != 2 {
		t.Fatalf("reasons = %v", tl.reasons)
	}
}

func TestCheckBody(t *testing.T) {
	job := &loadgen.Request{Kind: "job", Path: "/v1/jobs"}
	stream := &loadgen.Request{Kind: "job", Path: "/v1/jobs", Stream: true}
	sweep := &loadgen.Request{Kind: "sweep", Path: "/v1/sweeps"}
	for _, c := range []struct {
		name string
		req  *loadgen.Request
		body string
		want int64
		ok   bool
	}{
		{"job", job, `{"outcomes":3,"counts":{"0":1,"5":2}}`, 3, true},
		{"job short", job, `{"outcomes":4,"counts":{"0":1,"5":2}}`, 0, false},
		{"stream", stream, "{\"type\":\"plan\"}\n{\"type\":\"batch\",\"shots\":2,\"counts\":{\"1\":2}}\n{\"type\":\"batch\",\"shots\":1,\"counts\":{\"0\":1}}\n{\"type\":\"done\",\"outcomes\":3,\"counts\":{\"0\":1,\"1\":2}}\n", 3, true},
		{"stream error", stream, "{\"type\":\"plan\"}\n{\"type\":\"error\",\"error\":\"boom\"}\n", 0, false},
		{"stream no done", stream, "{\"type\":\"plan\"}\n", 0, false},
		{"sweep", sweep, `{"results":[{"outcomes":2,"shots":2,"counts":{"3":2}},{"outcomes":3,"shots":2,"counts":{"1":3}}]}`, 5, true},
		{"sweep short", sweep, `{"results":[{"outcomes":2,"shots":2,"counts":{"3":1}}]}`, 0, false},
	} {
		got, msg := checkBody(c.req, []byte(c.body))
		if (msg == "") != c.ok || got != c.want {
			t.Errorf("%s: checkBody = %d, %q; want %d ok=%v", c.name, got, msg, c.want, c.ok)
		}
	}
}

func TestSameResponseIgnoresStreamLineOrder(t *testing.T) {
	a := []byte("{\"type\":\"batch\",\"batch\":1}\n{\"type\":\"batch\",\"batch\":0}\n")
	b := []byte("{\"type\":\"batch\",\"batch\":0}\n{\"type\":\"batch\",\"batch\":1}\n")
	if !sameResponse(true, a, b) || sameResponse(false, a, b) {
		t.Fatal("stream bodies compare by line set, JSON bodies by bytes")
	}
}

func TestCanonicalCounts(t *testing.T) {
	if canonicalCounts(map[uint64]int{9: 1, 2: 3}) != "2:3,9:1," {
		t.Fatal("canonical form is not key-ordered")
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the program reports in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json = %v, program reports %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program's %d metrics", len(perLayer))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the program lacks", w.Name)
		}
	}
}
