package serve

// The serve layer's integration with internal/resultstore: key derivation,
// the stored record shapes, and byte-identical replay of finished jobs and
// sweeps in both response formats (one JSON body, NDJSON stream).
//
// Determinism argument, in short: a stored entry's key pins every input
// that shapes the merged histogram — the circuit's structural digest (full
// gate content, including raw-unitary matrices), noise model, mode,
// backend, seed, shots, the pinned batch size, and every decision-shaping
// option. Batch i runs at the derived seed BatchSeed(seed, i) regardless of
// scheduling, placement or failure timing, and countsJSON keys serialize in
// sorted order, so two runs with equal keys produce equal bytes — which is
// what lets a replay return the recorded first run verbatim. ElapsedMS is
// the one run-varying response field; replays return the recorded value
// rather than pretending to have simulated.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
)

// jobResultKey derives a job's store identity from the pinned wire request
// (prepare resolved every default into it) plus the circuit's structural
// digest and display name. The digest — not the QASM text — carries the
// program identity, so formatting differences that parse to the same gate
// list share an entry, while same-shape circuits with different unitaries
// never do. BatchShots is part of the key because the batch split changes
// the per-batch seed schedule, and with it the merged histogram.
func jobResultKey(j *job) string {
	w := j.wire
	h := sha256.New()
	fmt.Fprintf(h, "tqsim-result-v1\x00%s\x00%s\x00%s\x00%s\x00%s\x00%d\x00%d\x00%d\x00%g\x00%d\x00%d\x00%d\x00%g\x00%d",
		j.digest, j.circuit.Name, w.Noise, w.Mode, w.Backend,
		w.Shots, w.Seed, w.BatchShots, w.CopyCost, w.MaxLevels, w.MemoryBudgetBytes,
		w.Parallelism, w.Epsilon, w.ClusterNodes)
	return hex.EncodeToString(h.Sum(nil))
}

// sweepResultKey derives a sweep's store identity from the canonical JSON
// of the pinned wire spec — the same bytes preparedSweepForLease keys
// worker-side sharing on. Grid expansion, per-point seeds and planner
// decisions are all deterministic in the pinned spec, so equal specs mean
// equal results.
func sweepResultKey(sj *sweepJob) (string, bool) {
	raw, err := json.Marshal(sj.wire)
	if err != nil {
		return "", false
	}
	h := sha256.New()
	h.Write([]byte("tqsim-sweep-v1\x00"))
	h.Write(raw)
	return hex.EncodeToString(h.Sum(nil)), true
}

// storedJob is one finished job's store record: the exact non-streaming
// response body plus the per-batch records an NDJSON replay re-emits. Both
// response shapes are recorded on every store — a job first run with
// stream=false replays byte-identically as a stream, and vice versa.
type storedJob struct {
	Response json.RawMessage `json:"response"`
	Batches  []storedBatch   `json:"batches"`
}

// storedBatch mirrors the fields a live streaming batch line carries.
type storedBatch struct {
	Batch  int            `json:"batch"`
	Seed   uint64         `json:"seed"`
	Shots  int            `json:"shots"`
	Counts map[string]int `json:"counts"`
}

// jobRecorder accumulates batch results during a run that will be stored.
// Distributed batches complete in nondeterministic order; sorted restores
// index order so the stored record — and every stream replayed from it —
// is canonical.
type jobRecorder struct {
	batches []storedBatch
}

func (r *jobRecorder) observe(br *batchResult) {
	r.batches = append(r.batches, storedBatch{
		Batch:  br.index,
		Seed:   br.seed,
		Shots:  br.outcomes,
		Counts: countsJSON(br.counts),
	})
}

func (r *jobRecorder) sorted() []storedBatch {
	sort.Slice(r.batches, func(i, j int) bool { return r.batches[i].Batch < r.batches[j].Batch })
	return r.batches
}

// storeJob records a successfully finished job. Marshal failures drop the
// record silently — the store is an optimization, never a correctness
// dependency.
func (s *Server) storeJob(key string, resp *JobResponse, rec *jobRecorder) {
	raw, err := json.Marshal(resp)
	if err != nil {
		return
	}
	blob, err := json.Marshal(&storedJob{Response: raw, Batches: rec.sorted()})
	if err != nil {
		return
	}
	s.results.Put(key, blob)
}

// replayJob writes a stored job in the response shape this request asked
// for. Reports false — without touching the ResponseWriter — when the blob
// doesn't decode or doesn't cover the request (e.g. a stream replay of a
// truncated record): the caller then runs the job live and overwrites the
// bad entry.
func (s *Server) replayJob(w http.ResponseWriter, j *job, blob []byte) bool {
	var rec storedJob
	if json.Unmarshal(blob, &rec) != nil || len(rec.Response) == 0 {
		return false
	}
	if !j.stream {
		writeRawJSON(w, rec.Response)
		return true
	}
	var resp JobResponse
	if json.Unmarshal(rec.Response, &resp) != nil || len(rec.Batches) != j.numBatches() {
		return false
	}
	// The plan header is recomputed live, not replayed: planning is
	// deterministic, so it matches the cold run's header, and recomputing
	// keeps the record free of redundant decision state.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// A failed emit means the client hung up mid-replay: the response is
	// already committed, so stop writing the remaining lines — but report
	// the replay as handled either way.
	emit := func(line *batchLine) bool { return enc.Encode(line) == nil }
	if !emit(&batchLine{
		Type:      "plan",
		Batches:   j.numBatches(),
		Structure: j.planFor(0).plan.Structure(),
		Backend:   j.decision.Backend,
		Decision:  decisionJSON(j.decision),
	}) {
		return true
	}
	for i := range rec.Batches {
		b := &rec.Batches[i]
		if !emit(&batchLine{Type: "batch", Batch: b.Batch, Shots: b.Shots, Seed: b.Seed, Counts: b.Counts}) {
			return true
		}
	}
	emit(&batchLine{
		Type:      "done",
		Batches:   resp.Batches,
		Outcomes:  resp.Outcomes,
		Counts:    resp.Counts,
		ElapsedMS: resp.ElapsedMS,
	})
	return true
}

// storeSweep records a successfully finished sweep: the response body is
// the whole record (stream replays derive every line from it).
func (s *Server) storeSweep(key string, resp *SweepResponse) {
	blob, err := json.Marshal(resp)
	if err != nil {
		return
	}
	s.results.Put(key, blob)
}

// replaySweep writes a stored sweep in the requested response shape; false
// means the blob is unusable and the caller should run live.
func (s *Server) replaySweep(w http.ResponseWriter, sj *sweepJob, blob []byte) bool {
	var resp SweepResponse
	if json.Unmarshal(blob, &resp) != nil || resp.Points == 0 {
		return false
	}
	if !sj.stream {
		writeRawJSON(w, blob)
		return true
	}
	if len(resp.Results) != resp.Points {
		return false
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	// As in replayJob: a failed emit means the client hung up, so stop
	// writing but report the replay handled.
	emit := func(line *sweepLine) bool { return enc.Encode(line) == nil }
	if !emit(&sweepLine{Type: "sweep", Points: resp.Points, Distributed: resp.Distributed}) {
		return true
	}
	for i := range resp.Results {
		if !emit(&sweepLine{Type: "point", SweepPointJSON: &resp.Results[i]}) {
			return true
		}
	}
	emit(&sweepLine{
		Type:            "done",
		Points:          resp.Points,
		TotalOps:        resp.Ops,
		TotalPrefixHits: resp.PrefixHits,
		TotalElapsedMS:  resp.ElapsedMS,
	})
	return true
}

// writeRawJSON writes pre-marshaled bytes exactly the way writeJSON writes
// a value: Encoder.Encode is Marshal plus a trailing newline, so a replayed
// body is byte-identical to the recorded live response.
func writeRawJSON(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	_, _ = w.Write([]byte{'\n'})
}
