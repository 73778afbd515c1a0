package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tqsim/internal/loadgen"
	"tqsim/internal/serve"
)

// serve-mix: an in-process tqsimd behind httptest, sent loadgen.DefaultMix
// with a fifth of the requests repeating a pinned seed (store replays), in
// a closed loop of one client per CPU with no think time.
const (
	replayFraction = 0.2
	// warmBase is the first request index the warm-up draws from: far past
	// any index a timed phase reaches, so warm-up and timed requests never
	// coincide.
	warmBase = 1 << 40
)

type serveBench struct {
	e   *env
	srv *serve.Server
	ts  *httptest.Server
	// next is the index of the next request of the sequence.
	next atomic.Int64
	// refs maps each replay body to the reference response it must be
	// answered with, byte for byte.
	refMu sync.Mutex
	refs  map[string][]byte
	// replays are the warm-up's replay requests, one per class.
	replays []*loadgen.Request
	// classes are the mix's job request bodies, one per class, for the
	// prepare probe.
	classes map[string][]byte
	// stats0 and client mean of the traced phase, for the handler deltas.
	stats0, stats1 serve.Stats
	clientMeanMS   float64
}

func newServeBench(e *env) bench { return &serveBench{e: e} }

func (b *serveBench) spec() *loadgen.Spec {
	return &loadgen.Spec{Seed: b.e.seed, ReplayFraction: replayFraction, Duration: time.Hour,
		Arrival: "closed", Clients: runtime.NumCPU()}
}

// setup builds a fresh server and warms it: one fresh request per mix
// class, and each class's replay body twice, so the store holds it and
// the second answer (a replay) becomes the reference.
func (b *serveBench) setup(ctx context.Context) error {
	b.close()
	b.srv = serve.New(serve.Config{StoreEntries: 512, SnapshotCacheBytes: 256 << 20})
	b.ts = httptest.NewServer(b.srv)
	b.refs = make(map[string][]byte)
	b.replays = nil
	b.classes = make(map[string][]byte)
	spec := b.spec()
	fresh := make(map[string]bool)
	replayed := make(map[string]bool)
	for i := int64(warmBase); len(fresh) < len(loadgen.DefaultMix) || len(replayed) < len(loadgen.DefaultMix); i++ {
		if i > warmBase+10_000 {
			return fmt.Errorf("warm-up found %d fresh and %d replay classes", len(fresh), len(replayed))
		}
		req, err := spec.RequestAt(int(i))
		if err != nil {
			return err
		}
		class := classOf(req)
		if req.Replay {
			if replayed[class] {
				continue
			}
			replayed[class] = true
			first, err := b.post(ctx, req)
			if err != nil {
				return err
			}
			second, err := b.post(ctx, req)
			if err != nil {
				return err
			}
			if !sameResponse(req.Stream, first, second) {
				return fmt.Errorf("warm-up: %s replay differs from its first response", class)
			}
			b.refs[string(req.Body)] = second
			b.replays = append(b.replays, req)
			continue
		}
		if fresh[class] {
			continue
		}
		fresh[class] = true
		if req.Kind == "job" {
			b.classes[class] = req.Body
		}
		if _, err := b.post(ctx, req); err != nil {
			return err
		}
	}
	return nil
}

// classOf names a request's mix class: path, circuit and shape.
func classOf(r *loadgen.Request) string {
	var body struct {
		Circuit string `json:"circuit"`
	}
	_ = json.Unmarshal(r.Body, &body) // the generator's own JSON; an empty name still classifies
	return fmt.Sprintf("%s %s stream=%v", r.Path, body.Circuit, r.Stream)
}

// post sends one warm-up or probe request and returns the body of a 2xx
// answer.
func (b *serveBench) post(ctx context.Context, r *loadgen.Request) ([]byte, error) {
	status, body, err := b.roundTrip(ctx, r.Path, r.Body)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		return nil, fmt.Errorf("%s: status %d: %s", r.Path, status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (b *serveBench) roundTrip(ctx context.Context, path string, body []byte) (int, []byte, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := b.ts.Client().Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// sameResponse compares a fresh response with its replay: JSON bodies byte
// for byte, NDJSON streams line for line in any order (a fresh stream
// emits batches in completion order, a replay in batch order).
func sameResponse(stream bool, a, b []byte) bool {
	if !stream {
		return bytes.Equal(a, b)
	}
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	sort.Strings(la)
	sort.Strings(lb)
	return strings.Join(la, "\n") == strings.Join(lb, "\n")
}

// sample is one completed request.
type sample struct {
	ok       bool
	latency  time.Duration
	outcomes int64
}

// timed drives the server for d and measures every request. The closed
// loop runs in slices of a quarter of the set-up interval, so a run has
// enough slices for outcomes_per_s to take their fast rate, and
// set-ups are timed between slices while the server is idle; only the
// slices count as wall time.
func (b *serveBench) timed(ctx context.Context, d time.Duration, tr *tracer) (*phase, error) {
	if tr != nil {
		if err := b.getStats(ctx, tr, &b.stats0); err != nil {
			return nil, err
		}
	}
	spec := b.spec()
	var mu sync.Mutex
	var lat []float64
	var outcomes, completed int64
	var clientSum time.Duration
	record := func(s sample) {
		if !s.ok {
			return
		}
		mu.Lock()
		lat = append(lat, ms(s.latency))
		outcomes += s.outcomes
		completed++
		clientSum += s.latency
		mu.Unlock()
	}
	slice := d
	if s := b.e.setups; s != nil {
		slice = s.every / 4
	}
	var wall time.Duration
	// rates are each slice's outcomes per second.
	var rates []float64
	for start := time.Now(); time.Since(start) < d; {
		t0, o0 := time.Now(), outcomes // no client runs between slices
		if err := b.closedLoop(ctx, spec, min(slice, d-time.Since(start)), tr, record); err != nil {
			return nil, err
		}
		dt := time.Since(t0)
		wall += dt
		rates = append(rates, float64(outcomes-o0)/dt.Seconds())
		if err := b.e.between(ctx); err != nil {
			return nil, err
		}
	}
	if tr != nil {
		if err := b.getStats(ctx, tr, &b.stats1); err != nil {
			return nil, err
		}
		if completed > 0 {
			b.clientMeanMS = ms(clientSum) / float64(completed)
		}
	}
	// Slices hold different requests, so outcomes_per_s takes the fast
	// rate over slices, not a time of identical work.
	p := &phase{wall: wall, outcomes: outcomes, ops: completed, lat: lat, fastRate: fastRateOf(rates)}
	p.rows = []row{{name: "capacity_rps", unit: "req/s", value: float64(completed) / wall.Seconds()}}
	return p, nil
}

// closedLoop runs one client per CPU, each sending its next request as
// soon as the previous one completes, until d has elapsed.
func (b *serveBench) closedLoop(ctx context.Context, spec *loadgen.Spec, d time.Duration, tr *tracer, record func(sample)) error {
	var wg sync.WaitGroup
	errs := make(chan error, spec.Clients)
	start := time.Now()
	for range spec.Clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d && ctx.Err() == nil {
				i := b.next.Add(1) - 1
				req, err := spec.RequestAt(int(i))
				if err != nil {
					errs <- err
					return
				}
				b.e.tally.attempt()
				record(b.do(ctx, tr, req))
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// do sends one request, reads the whole answer, checks it, and returns
// its latency. Every failure is booked in the tally.
func (b *serveBench) do(ctx context.Context, tr *tracer, r *loadgen.Request) sample {
	reqID := fmt.Sprintf("r%d", r.Index)
	sp := tr.begin("serve.POST "+r.Path, 0, reqID)
	t0 := time.Now()
	status, body, err := b.roundTrip(ctx, r.Path, r.Body)
	lat := time.Since(t0)
	sp.end()
	if err != nil {
		b.e.tally.fail(fmt.Sprintf("%s %s: transport: %v", r.Path, reqID, err))
		return sample{}
	}
	if status/100 != 2 {
		b.e.tally.fail(fmt.Sprintf("%s %s: status %d", r.Path, reqID, status))
		return sample{}
	}
	outcomes, msg := checkBody(r, body)
	if msg != "" {
		b.e.tally.fail(fmt.Sprintf("%s %s: %s", r.Path, reqID, msg))
		return sample{}
	}
	if r.Replay {
		b.refMu.Lock()
		ref, ok := b.refs[string(r.Body)]
		if !ok {
			b.refs[string(r.Body)] = body
		}
		b.refMu.Unlock()
		if ok && !bytes.Equal(ref, body) {
			b.e.tally.fail(fmt.Sprintf("%s %s: replayed body differs from the first response", r.Path, reqID))
			return sample{}
		}
	}
	return sample{ok: true, latency: lat, outcomes: outcomes}
}

// checkBody validates a 2xx answer: every histogram sums to the outcomes
// it reports, and a stream carries no error record and ends with "done".
// It returns the outcomes delivered, or a failure message.
func checkBody(r *loadgen.Request, body []byte) (int64, string) {
	type hist struct {
		Type     string         `json:"type"`
		Outcomes int            `json:"outcomes"`
		Shots    int            `json:"shots"`
		Counts   map[string]int `json:"counts"`
		Error    string         `json:"error"`
	}
	sum := func(c map[string]int) int {
		n := 0
		for _, v := range c {
			n += v
		}
		return n
	}
	switch {
	case r.Kind == "sweep" && !r.Stream:
		var resp struct {
			Results []hist `json:"results"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, "undecodable sweep body: " + err.Error()
		}
		var total int64
		for i, pt := range resp.Results {
			if sum(pt.Counts) != pt.Outcomes || pt.Outcomes < pt.Shots {
				return 0, fmt.Sprintf("sweep point %d histogram sums to %d, reports %d outcomes", i, sum(pt.Counts), pt.Outcomes)
			}
			total += int64(pt.Outcomes)
		}
		if len(resp.Results) == 0 {
			return 0, "sweep returned no points"
		}
		return total, ""
	case r.Stream:
		sc := bufio.NewScanner(bytes.NewReader(body))
		sc.Buffer(make([]byte, 64<<10), 16<<20)
		var done *hist
		batched := 0
		for sc.Scan() {
			var line hist
			if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
				return 0, "undecodable stream line: " + err.Error()
			}
			switch line.Type {
			case "error":
				return 0, "stream error record: " + line.Error
			case "batch":
				if sum(line.Counts) != line.Shots {
					return 0, fmt.Sprintf("batch histogram sums to %d, reports %d", sum(line.Counts), line.Shots)
				}
				batched += line.Shots
			case "done":
				done = &line
			}
		}
		if done == nil {
			return 0, "stream ended without a done record"
		}
		if sum(done.Counts) != done.Outcomes || batched != done.Outcomes {
			return 0, fmt.Sprintf("stream histogram sums to %d, batches to %d, reports %d", sum(done.Counts), batched, done.Outcomes)
		}
		return int64(done.Outcomes), ""
	default:
		var resp hist
		if err := json.Unmarshal(body, &resp); err != nil {
			return 0, "undecodable job body: " + err.Error()
		}
		if sum(resp.Counts) != resp.Outcomes || resp.Outcomes <= 0 {
			return 0, fmt.Sprintf("job histogram sums to %d, reports %d outcomes", sum(resp.Counts), resp.Outcomes)
		}
		return int64(resp.Outcomes), ""
	}
}

// getStats reads /v1/stats under a span.
func (b *serveBench) getStats(ctx context.Context, tr *tracer, out *serve.Stats) error {
	sp := tr.begin("serve.GET /v1/stats", 0, "")
	defer sp.end()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/v1/stats", nil)
	if err != nil {
		return err
	}
	resp, err := b.ts.Client().Do(hreq)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// finish, when traced, derives the serve, store and snapshot metrics from
// the /v1/stats deltas over the traced phase, and probes request
// preparation (POST /v1/plan) and store replay per mix class.
func (b *serveBench) finish(ctx context.Context, tr *tracer, layers map[string]float64) error {
	if tr == nil {
		return nil
	}
	s0, s1 := b.stats0, b.stats1
	ratio := func(hits, misses uint64) float64 {
		if hits+misses == 0 {
			return 0
		}
		return float64(hits) / float64(hits+misses)
	}
	if dc := s1.LatencyCount - s0.LatencyCount; dc > 0 {
		mean := (s1.LatencyMeanMS*float64(s1.LatencyCount) - s0.LatencyMeanMS*float64(s0.LatencyCount)) / float64(dc)
		layers["serve.handler_ms_mean"] = mean
		layers["serve.client_gap_ms"] = b.clientMeanMS - mean
	}
	layers["serve.handler_ms_p50"] = s1.LatencyP50MS
	layers["serve.plan_cache_hit_ratio"] = ratio(s1.PlanCacheHits-s0.PlanCacheHits, s1.PlanCacheMisses-s0.PlanCacheMisses)
	layers["resultstore.hit_ratio"] = ratio(s1.ResultsHits-s0.ResultsHits, s1.ResultsMisses-s0.ResultsMisses)
	layers["core.snapshot_hit_ratio"] = ratio(s1.SnapshotHits-s0.SnapshotHits, s1.SnapshotMisses-s0.SnapshotMisses)

	const reps = 7
	for class, body := range b.classes {
		var circ struct {
			Circuit string `json:"circuit"`
		}
		if err := json.Unmarshal(body, &circ); err != nil {
			return err
		}
		name := "serve.POST /v1/plan/" + circ.Circuit
		for range reps {
			sp := tr.begin(name, 0, "")
			status, out, err := b.roundTrip(ctx, "/v1/plan", body)
			sp.end()
			b.e.tally.check(err == nil && status == http.StatusOK, fmt.Sprintf("%s: /v1/plan status %d: %s", class, status, bytes.TrimSpace(out)))
		}
		layers["serve.prepare_ms."+circ.Circuit] = medianMS(tr.durations(name))
	}
	for _, req := range b.replays {
		for range reps {
			sp := tr.begin("serve.replay", 0, "")
			status, out, err := b.roundTrip(ctx, req.Path, req.Body)
			sp.end()
			b.e.tally.check(err == nil && status == http.StatusOK && bytes.Equal(out, b.refs[string(req.Body)]),
				req.Path+": replay probe differs from the reference response")
		}
	}
	layers["resultstore.replay_ms"] = medianMS(tr.durations("serve.replay"))
	return nil
}

func (b *serveBench) close() {
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
}
