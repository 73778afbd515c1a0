// Package serve implements the tqsimd HTTP/JSON service: a long-running
// entry point that accepts OpenQASM (or benchmark-suite) simulation jobs,
// admission-controls them with the planner's cost/memory estimates, batches
// shots through a bounded scheduler, caches simulation plans keyed by
// (circuit hash, noise, options) in a bounded LRU, and streams per-batch
// histograms as NDJSON. POST /v1/sweeps serves whole parameter/noise grids
// through the internal/sweep engine (plan and ideal-prefix reuse across
// points), streaming one NDJSON line per point. cmd/tqsimd is a thin main
// around New.
//
// With Config.StoreEntries or Config.StoreDir set, finished jobs and sweeps
// are recorded in a content-addressed result store (internal/resultstore)
// and repeated requests replay byte-identically without simulating; with
// Config.SnapshotCacheBytes set, ideal prefix snapshots are shared across
// jobs and sweeps whose circuits share gate prefixes (core.SnapshotCache).
//
// The same Server type implements both distributed roles (see protocol.go
// for the wire contract): a worker (Config.WorkerMode) additionally serves
// POST /v1/shard leases, and a coordinator (Config.Workers) shards
// multi-batch jobs — and multi-point sweeps — across its worker pool,
// health-checks the workers, bounds every lease round trip by
// Config.LeaseTimeout, and re-dispatches a failed or hung worker's unacked
// leases — falling back to local execution when no worker can take the
// work.
//
// Determinism contract: a job that fits in one batch returns a histogram
// byte-identical to tqsim.RunTQSim (mode "tqsim") or tqsim.RunBackend
// (mode "baseline") at the same seed and options. A job split into B
// batches runs batch i at the derived seed BatchSeed(seed, i) (batch 0
// keeps the job seed) and returns the merged histogram — equal to merging
// B single-process runs at those seeds, regardless of how many jobs the
// server is executing concurrently, and — because batch i's histogram is a
// pure function of the job request and i — regardless of how many workers
// the batches were sharded over or how failed leases were re-dispatched.
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"tqsim"
	"tqsim/internal/hpcmodel"
	"tqsim/internal/metrics"
	"tqsim/internal/planner"
	"tqsim/internal/resultstore"
	"tqsim/internal/rng"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// MaxConcurrent bounds jobs executing simultaneously
	// (default GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth bounds jobs waiting for an execution slot; beyond it the
	// server answers 429 instead of queueing unboundedly (default 16).
	QueueDepth int
	// MemoryBudgetBytes caps the planner-estimated peak state memory of
	// all running jobs combined. A job whose estimate alone exceeds the
	// budget is rejected 413; one that merely doesn't fit *now* is
	// rejected 503 for the client to retry (0 = unlimited).
	MemoryBudgetBytes int64
	// MaxShots rejects absurd jobs up front (default 1<<22).
	MaxShots int
	// DefaultBatchShots splits jobs into batches of this many shots when
	// the request doesn't choose (0 = one batch per job).
	DefaultBatchShots int
	// PlanCacheEntries caps the plan cache (default 256). The cache is LRU:
	// under sustained traffic from many distinct circuits old plans are
	// evicted instead of growing without bound.
	PlanCacheEntries int
	// MaxSweepPoints caps a sweep's expanded grid size (default 4096);
	// larger sweeps are rejected 413 before any planning work.
	MaxSweepPoints int
	// WorkerMode enables the shard-lease endpoints (POST /v1/shard,
	// honored GET /v1/worker): the tqsimd -worker role.
	WorkerMode bool
	// Workers lists worker base URLs (e.g. "http://10.0.0.2:8651"); when
	// non-empty the server acts as a coordinator and shards multi-batch
	// jobs across them.
	Workers []string
	// LeaseTimeout bounds one shard lease's round trip, including its retry
	// attempts (default 10m, negative = unlimited). A worker that accepts a
	// lease and then hangs — alive TCP, no response — used to stall the
	// whole job forever; on timeout the worker is marked dead and the lease
	// requeues to the rest of the pool. Size it above the longest
	// legitimate lease (a lease is a handful of batches), not above zero.
	LeaseTimeout time.Duration
	// AcceptWorkers enables elastic membership on a coordinator with no
	// static worker list: workers self-register via POST /v1/workers
	// (tqsimd -worker -join). A server with Config.Workers accepts
	// registrations regardless.
	AcceptWorkers bool
	// SuspectAfter and DeadAfter drive the liveness state machine for
	// workers that heartbeat: a worker whose last heartbeat (or probe, or
	// completed lease) is older than SuspectAfter gets no new leases; older
	// than DeadAfter it is declared dead until it announces or answers a
	// probe again (defaults 5s / 15s). Static -workers entries that never
	// heartbeat are exempt — they keep probe-based liveness.
	SuspectAfter time.Duration
	DeadAfter    time.Duration
	// LeaseRetries bounds per-worker retry attempts after a failed lease or
	// probe call, with exponential backoff and jitter between attempts
	// (default 2, negative = no retries).
	LeaseRetries int
	// RetryBackoff is the base backoff before the first retry; attempt k
	// waits a jittered RetryBackoff<<k (default 25ms).
	RetryBackoff time.Duration
	// RetryAfterCap caps how long the coordinator honors a worker's
	// Retry-After hint on 503 before retrying (default 2s). Exhausted
	// retries exclude the worker from the job, as before.
	RetryAfterCap time.Duration
	// BreakerThreshold opens a worker's circuit breaker after this many
	// consecutive failed lease attempts; after BreakerCooldown the breaker
	// half-opens and admits one trial lease (defaults 5 / 5s; threshold
	// negative = breaker disabled).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// ProbeBackoff spaces health probes of a non-alive worker (default 5s):
	// probing runs on the job submission path and after mid-job failures,
	// and a blackholed worker must not add probe latency to every job.
	ProbeBackoff time.Duration
	// Transport overrides the HTTP transport for coordinator→worker calls
	// (nil = http.DefaultTransport). The fault-injection hook:
	// internal/faultinject wraps it to inject delays, drops and corruption
	// deterministically.
	Transport http.RoundTripper
	// JitterSeed seeds the backoff-jitter stream (default 1) so retry
	// schedules replay deterministically under a fixed fault plan.
	JitterSeed uint64
	// StoreEntries enables the content-addressed result store and caps its
	// in-memory LRU front. A stored job or sweep is replayed byte-identical
	// from the store — the simulator's determinism contract makes the
	// stored bytes exactly what a fresh run would produce — without
	// consuming an execution slot. 0 disables the store unless StoreDir is
	// set (the library default; tqsimd enables it).
	StoreEntries int
	// StoreDir persists stored results to this directory (atomic
	// write-then-rename), so replays survive daemon restarts. Empty keeps
	// the store memory-only.
	StoreDir string
	// StoreMaxBytes caps StoreDir's total size (default 1 GiB).
	StoreMaxBytes int64
	// SnapshotCacheBytes enables the cross-job ideal-prefix snapshot cache
	// and caps its resident state bytes. Boundary states are keyed by the
	// structural digest of the gate prefix before them, so any two jobs —
	// or sweep points — whose circuits share a gate prefix share the cached
	// ideal states at common plan boundaries. 0 disables the cache (the
	// library default; tqsimd enables it); negative selects no byte cap.
	SnapshotCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxShots <= 0 {
		c.MaxShots = 1 << 22
	}
	if c.PlanCacheEntries <= 0 {
		c.PlanCacheEntries = 256
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.LeaseTimeout == 0 {
		c.LeaseTimeout = 10 * time.Minute
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 5 * time.Second
	}
	if c.DeadAfter <= 0 {
		c.DeadAfter = 15 * time.Second
	}
	if c.DeadAfter < c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter
	}
	if c.LeaseRetries == 0 {
		c.LeaseRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetryAfterCap <= 0 {
		c.RetryAfterCap = 2 * time.Second
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.ProbeBackoff <= 0 {
		c.ProbeBackoff = 5 * time.Second
	}
	if c.JitterSeed == 0 {
		c.JitterSeed = 1
	}
	return c
}

// Stats is the /v1/stats payload.
type Stats struct {
	JobsCompleted     uint64 `json:"jobs_completed"`
	JobsFailed        uint64 `json:"jobs_failed"`
	JobsCanceled      uint64 `json:"jobs_canceled"`
	RejectedQueueFull uint64 `json:"rejected_queue_full"`
	RejectedMemory    uint64 `json:"rejected_memory"`
	RejectedDraining  uint64 `json:"rejected_draining"`
	BatchesRun        uint64 `json:"batches_run"`
	SweepsCompleted   uint64 `json:"sweeps_completed"`
	SweepPointsRun    uint64 `json:"sweep_points_run"`
	PlanCacheHits     uint64 `json:"plan_cache_hits"`
	PlanCacheMisses   uint64 `json:"plan_cache_misses"`
	PlanCacheEvicted  uint64 `json:"plan_cache_evicted"`
	PlanCacheEntries  int    `json:"plan_cache_entries"`
	MemoryInUseBytes  int64  `json:"memory_in_use_bytes"`
	Draining          bool   `json:"draining"`
	// Coordinator-only counters: shard leases handed to workers, leases
	// re-dispatched after a failure, and workers declared dead.
	ShardsDispatched uint64 `json:"shards_dispatched,omitempty"`
	ShardsRequeued   uint64 `json:"shards_requeued,omitempty"`
	WorkerFailures   uint64 `json:"worker_failures,omitempty"`
	WorkersAlive     int    `json:"workers_alive,omitempty"`
	WorkersTotal     int    `json:"workers_total,omitempty"`
	// Resilient-dispatch counters: lease retry attempts, shard responses
	// rejected by checksum, Retry-After waits honored, and elastic
	// membership churn (self-registrations and dead→alive revivals).
	LeaseRetries     uint64 `json:"lease_retries,omitempty"`
	ChecksumFailures uint64 `json:"checksum_failures,omitempty"`
	RetryAfterWaits  uint64 `json:"retry_after_waits,omitempty"`
	WorkersJoined    uint64 `json:"workers_joined,omitempty"`
	WorkersRevived   uint64 `json:"workers_revived,omitempty"`
	// Workers is the per-worker registry view: liveness state, breaker
	// state, heartbeat age, lease/retry/requeue counts and utilization.
	Workers []WorkerStat `json:"workers,omitempty"`
	// Result-store counters: jobs and sweeps answered as stored replays vs
	// looked up and missed, and the store's entry count and resident bytes
	// (disk bytes when a backing directory is configured).
	ResultsHits    uint64 `json:"results_hits"`
	ResultsMisses  uint64 `json:"results_misses"`
	ResultsEntries int    `json:"results_entries"`
	ResultsBytes   int64  `json:"results_bytes"`
	// Snapshot-cache counters: ideal boundary states served from the
	// cross-job cache vs computed (counted per boundary, not per plan), and
	// the cache's resident state bytes.
	SnapshotHits   uint64 `json:"snapshot_hits"`
	SnapshotMisses uint64 `json:"snapshot_misses"`
	SnapshotBytes  int64  `json:"snapshot_bytes"`
	// Per-request latency accounting over completed jobs and sweeps
	// (replays included; rejections and failures excluded), measured from
	// request receipt to response completion on a log-bucketed histogram
	// (internal/metrics.LatencyHist). This is the server-side view the
	// tqsimgen load harness cross-checks its client-side measurements
	// against: client p99 ≥ server p99, with the gap being network and
	// client-side queueing.
	LatencyCount  uint64  `json:"latency_count"`
	LatencyMeanMS float64 `json:"latency_mean_ms"`
	LatencyP50MS  float64 `json:"latency_p50_ms"`
	LatencyP95MS  float64 `json:"latency_p95_ms"`
	LatencyP99MS  float64 `json:"latency_p99_ms"`
}

// Server is the tqsimd HTTP handler. Construct with New.
type Server struct {
	cfg Config
	mux *http.ServeMux

	slots    chan struct{} // execution permits (MaxConcurrent)
	draining atomic.Bool

	// pendMu guards the pending-job count and the idle signal. DrainWait
	// blocks on idleCh (closed by release when the count reaches zero)
	// instead of polling — drain completes the instant the last job does.
	pendMu  sync.Mutex
	pending int
	idleCh  chan struct{}

	memMu     sync.Mutex
	memInUse  int64
	planMu    sync.Mutex
	planCache *lruCache[*cachedPlan]
	// sweepMu guards sweepPreps, the worker's cache of prepared sweeps:
	// a coordinator cuts one sweep into several leases per worker, and
	// re-preparing per lease would rebuild the grid's plans and ideal
	// prefix snapshots the previous lease already paid for.
	sweepMu    sync.Mutex
	sweepPreps *lruCache[*sweepJob]
	pool       *registry // non-nil when coordinating a worker fleet
	stats      [statCount]atomic.Uint64

	// results replays finished jobs and sweeps byte-identically without
	// simulating; snapCache shares ideal boundary states across jobs. Both
	// nil when disabled by config. storeErr records a failed store open
	// (e.g. an unwritable StoreDir): New still returns a working server so
	// the signature stays error-free, and cmd/tqsimd checks StoreError.
	results   *resultstore.Store
	snapCache *tqsim.SnapshotCache
	storeErr  error

	// reqLat is the per-request latency histogram behind the /v1/stats
	// latency_* fields: every completed job and sweep (stored replays
	// included) records its receipt-to-completion wall time. Atomic
	// buckets, so recording never contends with a concurrent stats read.
	reqLat metrics.LatencyHist
}

// recordLatency books one completed request into the latency histogram.
func (s *Server) recordLatency(start time.Time) { s.reqLat.Record(time.Since(start)) }

type cachedPlan struct {
	plan     *tqsim.Plan
	decision *tqsim.Decision
}

const (
	statCompleted = iota
	statFailed
	statCanceled
	statQueueFull
	statMemory
	statDraining
	statBatches
	statPlanHits
	statPlanMisses
	statPlanEvicted
	statShardsDispatched
	statShardsRequeued
	statWorkerFailures
	statSweepsCompleted
	statSweepPoints
	statLeaseRetries
	statChecksumFails
	statRetryAfterWaits
	statWorkersJoined
	statWorkersRevived
	statResultsHits
	statResultsMisses
	statCount
)

// statusClientClosedRequest classifies a job stopped because the client
// went away (nginx's 499 convention). It is never written to a live
// client — the connection is already gone — but it routes the bookkeeping:
// cancelled jobs count as canceled, not failed.
const statusClientClosedRequest = 499

// New returns a ready-to-serve handler.
func New(cfg Config) *Server {
	s := &Server{
		cfg: cfg.withDefaults(),
		mux: http.NewServeMux(),
	}
	s.planCache = newLRU[*cachedPlan](s.cfg.PlanCacheEntries)
	// A handful of entries suffices: the cache exists so the several
	// leases of one in-flight sweep share one Prepared (and its lazily
	// built snapshots), not to retain history. Snapshots pinned by idle
	// entries are bounded by this cap times the per-sweep snapshot set.
	s.sweepPreps = newLRU[*sweepJob](4)
	s.slots = make(chan struct{}, s.cfg.MaxConcurrent)
	if len(s.cfg.Workers) > 0 || s.cfg.AcceptWorkers {
		s.pool = newRegistry(s.cfg)
	}
	if s.cfg.StoreEntries > 0 || s.cfg.StoreDir != "" {
		st, err := resultstore.Open(resultstore.Config{
			MaxEntries:   s.cfg.StoreEntries,
			Dir:          s.cfg.StoreDir,
			MaxDiskBytes: s.cfg.StoreMaxBytes,
		})
		if err != nil {
			s.storeErr = err
		} else {
			s.results = st
		}
	}
	if s.cfg.SnapshotCacheBytes != 0 {
		s.snapCache = tqsim.NewSnapshotCache(s.cfg.SnapshotCacheBytes)
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/backends", s.handleBackends)
	s.mux.HandleFunc("GET /v1/worker", s.handleWorkerInfo)
	s.mux.HandleFunc("POST /v1/plan", s.handlePlan)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSweeps)
	s.mux.HandleFunc("POST /v1/shard", s.handleShard)
	s.mux.HandleFunc("POST /v1/workers", s.handleWorkerJoin)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// StoreError reports why the result store failed to open (nil when the
// store is disabled or healthy). New never fails: a server with a broken
// store still simulates correctly, it just cannot replay — callers that
// consider persistence mandatory (cmd/tqsimd with -store-dir) check here.
func (s *Server) StoreError() error { return s.storeErr }

// BeginDrain moves the server into draining mode: new submissions (jobs and
// shard leases) are rejected 503 with a Retry-After header while in-flight
// work runs to completion. cmd/tqsimd calls it on SIGTERM immediately
// before http.Server.Shutdown, which waits for the in-flight handlers.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// DrainWait blocks until no jobs are running or queued, or ctx expires.
// cmd/tqsimd calls it between BeginDrain and http.Server.Shutdown: while
// it waits the listener stays open, so late submissions receive the
// documented 503 + Retry-After instead of a connection refusal — the
// difference between a load balancer retrying elsewhere and surfacing an
// error to the client.
//
// The wait is a completion signal, not a poll: release closes the idle
// channel when the pending count reaches zero, so drain returns the moment
// the last job finishes and burns no timer churn while waiting. The ctx
// cancel path is unchanged.
func (s *Server) DrainWait(ctx context.Context) error {
	for {
		s.pendMu.Lock()
		if s.pending == 0 {
			s.pendMu.Unlock()
			return nil
		}
		if s.idleCh == nil {
			s.idleCh = make(chan struct{})
		}
		idle := s.idleCh
		s.pendMu.Unlock()
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-idle:
			// Re-check: a submission may have slipped in between the close
			// and this wakeup (possible when DrainWait is used without
			// BeginDrain, e.g. in tests).
		}
	}
}

// rejectDraining answers a submission arriving during drain.
func (s *Server) rejectDraining(w http.ResponseWriter) {
	s.stats[statDraining].Add(1)
	writeError(w, http.StatusServiceUnavailable, "server is draining; retry")
}

// JobRequest is the POST /v1/jobs (and /v1/plan) body. Exactly one of QASM
// or Circuit selects the program.
type JobRequest struct {
	// QASM is an OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Circuit names a benchmark-suite circuit (e.g. "qft_n12") instead.
	Circuit string `json:"circuit,omitempty"`
	// Noise names the model: DC (default), DCR, TR, TRR, AD, ADR, PD, PDR,
	// ALL, or "ideal".
	Noise string `json:"noise,omitempty"`
	// Shots is the requested sample count (required, positive).
	Shots int `json:"shots"`
	// Seed selects the reproducible trajectory stream.
	Seed uint64 `json:"seed"`
	// Mode is "tqsim" (tree reuse, default) or "baseline" (flat plan).
	Mode string `json:"mode,omitempty"`
	// Backend picks the engine by registry name or "auto" (default).
	Backend string `json:"backend,omitempty"`
	// BatchShots splits the job into batches of this many shots
	// (0 = the server's DefaultBatchShots; negative = force one batch).
	BatchShots int `json:"batch_shots,omitempty"`
	// Stream requests an NDJSON per-batch stream instead of one JSON body.
	Stream bool `json:"stream,omitempty"`
	// CopyCost, MaxLevels, MemoryBudgetBytes, Parallelism, Epsilon and
	// ClusterNodes forward to tqsim.Options (zero = defaults). CopyCost is
	// never host-profiled in the daemon: plans must be deterministic so the
	// plan cache and cross-host replay agree.
	CopyCost          float64 `json:"copy_cost,omitempty"`
	MaxLevels         int     `json:"max_levels,omitempty"`
	MemoryBudgetBytes int64   `json:"memory_budget_bytes,omitempty"`
	Parallelism       int     `json:"parallelism,omitempty"`
	Epsilon           float64 `json:"epsilon,omitempty"`
	ClusterNodes      int     `json:"cluster_nodes,omitempty"`
}

// DecisionJSON is the wire form of a planner Decision.
type DecisionJSON struct {
	Backend      string          `json:"backend"`
	Mode         string          `json:"mode,omitempty"`
	Parallelism  int             `json:"parallelism"`
	ClusterNodes int             `json:"cluster_nodes,omitempty"`
	EstPeakBytes int64           `json:"est_peak_bytes"`
	EstPeak      string          `json:"est_peak"`
	Why          string          `json:"why"`
	Rejected     []CandidateJSON `json:"rejected,omitempty"`
}

// CandidateJSON is one rejected engine in a DecisionJSON.
type CandidateJSON struct {
	Backend string `json:"backend"`
	Mode    string `json:"mode,omitempty"`
	Reason  string `json:"reason"`
}

func decisionJSON(d *tqsim.Decision) *DecisionJSON {
	if d == nil {
		return nil
	}
	out := &DecisionJSON{
		Backend:      d.Backend,
		Mode:         d.Mode,
		Parallelism:  d.Parallelism,
		ClusterNodes: d.ClusterNodes,
		EstPeakBytes: d.EstPeakBytes,
		EstPeak:      hpcmodel.FormatBytes(float64(d.EstPeakBytes)),
		Why:          d.Why,
	}
	for _, c := range d.Rejected() {
		out.Rejected = append(out.Rejected, CandidateJSON{Backend: c.Backend, Mode: c.Mode, Reason: c.Reason})
	}
	return out
}

// JobResponse is the non-streaming POST /v1/jobs body. Counts keys are the
// decimal basis indices, values the shot counts.
type JobResponse struct {
	Circuit   string         `json:"circuit"`
	Width     int            `json:"width"`
	Backend   string         `json:"backend"`
	Structure string         `json:"structure"`
	Outcomes  int            `json:"outcomes"`
	Batches   int            `json:"batches"`
	Counts    map[string]int `json:"counts"`
	ElapsedMS float64        `json:"elapsed_ms"`
	Decision  *DecisionJSON  `json:"decision,omitempty"`
	PlanHit   bool           `json:"plan_cache_hit"`
	// Distributed reports whether batches were sharded across the worker
	// pool (the histogram is byte-identical either way).
	Distributed bool `json:"distributed,omitempty"`
}

// batchLine is one NDJSON record of a streaming response. In distributed
// mode batch lines arrive in shard-completion order, which is not
// deterministic — each line's content and the final merged histogram are.
type batchLine struct {
	Type      string         `json:"type"` // "plan" | "batch" | "done" | "error"
	Batch     int            `json:"batch,omitempty"`
	Batches   int            `json:"batches,omitempty"`
	Shots     int            `json:"shots,omitempty"`
	Seed      uint64         `json:"seed,omitempty"`
	Structure string         `json:"structure,omitempty"`
	Backend   string         `json:"backend,omitempty"`
	Counts    map[string]int `json:"counts,omitempty"`
	Outcomes  int            `json:"outcomes,omitempty"`
	ElapsedMS float64        `json:"elapsed_ms,omitempty"`
	Decision  *DecisionJSON  `json:"decision,omitempty"`
	Error     string         `json:"error,omitempty"`
}

var knownNoise = map[string]bool{
	"": true, "ideal": true, "DC": true, "DCR": true, "TR": true, "TRR": true,
	"AD": true, "ADR": true, "PD": true, "PDR": true, "ALL": true,
}

// job is a validated, planned request ready to execute.
type job struct {
	circuit *tqsim.Circuit
	noise   *tqsim.NoiseModel
	opt     tqsim.Options
	shots   int
	mode    string
	// digest is the circuit's structural digest, computed once in prepare
	// and shared by the plan-cache key and the result-store key.
	digest string
	// batchSize is the per-batch shot count; 0 runs one batch. Batches are
	// never materialized as a slice: a max-shots job at batch size 1 is
	// millions of batches but only two distinct sizes, so plans are held
	// per size and batch i's size is computed on demand.
	batchSize  int
	planBySize map[int]*cachedPlan
	decision   *tqsim.Decision
	// estPeak is the admission-control estimate: the chosen candidate's
	// peak for auto jobs, the named engine's for explicit ones.
	estPeak int64
	planHit bool
	stream  bool
	// wire is the request to forward in shard leases, with every value that
	// shapes batch arithmetic pinned to the coordinator's resolution (the
	// worker must never re-apply its own defaults and diverge).
	wire *JobRequest
}

// numBatches returns how many batches the job runs.
func (j *job) numBatches() int {
	if j.batchSize <= 0 || j.batchSize >= j.shots {
		return 1
	}
	return (j.shots + j.batchSize - 1) / j.batchSize
}

// batchShots returns batch i's shot count (the last batch is ragged).
func (j *job) batchShots(i int) int {
	n := j.numBatches()
	if n == 1 {
		return j.shots
	}
	if i == n-1 {
		return j.shots - (n-1)*j.batchSize
	}
	return j.batchSize
}

// planFor returns the cached plan for batch i.
func (j *job) planFor(i int) *cachedPlan { return j.planBySize[j.batchShots(i)] }

// httpError carries a status code with the message.
type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func errf(status int, format string, args ...any) *httpError {
	return &httpError{status: status, msg: fmt.Sprintf(format, args...)}
}

// prepare validates the request, resolves the circuit and noise model,
// plans every batch (through the cache) and records the planner decision.
func (s *Server) prepare(req *JobRequest) (*job, *httpError) {
	if (req.QASM == "") == (req.Circuit == "") {
		return nil, errf(http.StatusBadRequest, "provide exactly one of qasm or circuit")
	}
	if req.Shots <= 0 {
		return nil, errf(http.StatusBadRequest, "shots must be positive")
	}
	if req.Shots > s.cfg.MaxShots {
		return nil, errf(http.StatusRequestEntityTooLarge,
			"shots %d exceeds the server limit %d", req.Shots, s.cfg.MaxShots)
	}
	if !knownNoise[req.Noise] {
		return nil, errf(http.StatusBadRequest, "unknown noise model %q", req.Noise)
	}
	mode := req.Mode
	if mode == "" {
		mode = "tqsim"
	}
	if mode != "tqsim" && mode != "baseline" {
		return nil, errf(http.StatusBadRequest, "mode must be tqsim or baseline, not %q", req.Mode)
	}
	backend := req.Backend
	if backend == "" {
		backend = tqsim.AutoBackend
	}
	if backend != tqsim.AutoBackend && !slices.Contains(tqsim.Backends(), backend) {
		return nil, errf(http.StatusBadRequest, "unknown backend %q (have auto, %v)",
			req.Backend, tqsim.Backends())
	}

	var c *tqsim.Circuit
	var err error
	if req.QASM != "" {
		c, err = tqsim.ParseQASM("job", req.QASM)
		if err != nil {
			return nil, errf(http.StatusBadRequest, "qasm: %v", err)
		}
	} else if c = tqsim.BenchmarkByName(req.Circuit); c == nil {
		return nil, errf(http.StatusBadRequest, "unknown suite circuit %q", req.Circuit)
	}

	noiseName := req.Noise
	if noiseName == "" {
		noiseName = "DC"
	}
	m := tqsim.NoiseByName(noiseName) // nil for "ideal"

	j := &job{
		circuit:    c,
		digest:     tqsim.CircuitDigest(c),
		noise:      m,
		shots:      req.Shots,
		mode:       mode,
		stream:     req.Stream,
		planBySize: make(map[int]*cachedPlan, 2),
		opt: tqsim.Options{
			Seed:              req.Seed,
			CopyCost:          req.CopyCost,
			MaxLevels:         req.MaxLevels,
			MemoryBudgetBytes: req.MemoryBudgetBytes,
			Backend:           backend,
			ClusterNodes:      req.ClusterNodes,
			Parallelism:       req.Parallelism,
		},
	}
	j.opt.Epsilon = req.Epsilon
	j.batchSize = req.BatchShots
	if j.batchSize == 0 {
		j.batchSize = s.cfg.DefaultBatchShots
	}
	wire := *req
	wire.Stream = false
	wire.Noise = noiseName
	wire.Mode = mode
	wire.Backend = backend
	wire.BatchShots = j.batchSize
	if wire.BatchShots == 0 {
		wire.BatchShots = -1 // pin "one batch" against remote defaults
	}
	j.wire = &wire

	// Plan the (at most two) distinct batch sizes: the full batch and the
	// ragged last one.
	hash := circuitHash(j.digest, noiseName, mode, &j.opt)
	n := j.numBatches()
	for _, i := range []int{0, n - 1} {
		size := j.batchShots(i)
		if _, done := j.planBySize[size]; done {
			continue
		}
		cp, hit, herr := s.planBatch(hash, c, m, size, mode, j.opt)
		if herr != nil {
			return nil, herr
		}
		j.planBySize[size] = cp
		if j.decision == nil {
			j.decision = cp.decision
			j.planHit = hit
		}
	}

	// Admission estimate: auto jobs run the decided candidate; explicit
	// jobs run the named engine, so estimate that engine's peak directly.
	if backend == tqsim.AutoBackend {
		j.estPeak = j.decision.EstPeakBytes
	} else {
		budget := j.opt.MemoryBudgetBytes
		if budget == 0 {
			budget = s.cfg.MemoryBudgetBytes
		}
		j.estPeak = planner.PeakBytes(j.planFor(0).plan, m, backend, planner.Budget{
			MemoryBytes:  budget,
			Parallelism:  req.Parallelism,
			ClusterNodes: req.ClusterNodes,
		})
	}

	// Pin the two planner inputs that default from host/server state —
	// worker count (GOMAXPROCS) and memory budget (server config) — into
	// the shard-lease request. Planner decisions are deterministic in
	// (plan, noise, budget, worker count), so with these pinned a worker
	// re-planning the wire request resolves "auto" to the same engine the
	// coordinator did; left unpinned, a heterogeneous worker could pick a
	// different engine (e.g. tableau vs dense, whose per-seed sampling
	// differs) and break the byte-identical-merge guarantee.
	if wire.Parallelism == 0 {
		wire.Parallelism = j.decision.Parallelism
	}
	if wire.MemoryBudgetBytes == 0 {
		wire.MemoryBudgetBytes = s.cfg.MemoryBudgetBytes
	}
	return j, nil
}

// planBatch returns the cached plan+decision for one batch size, computing
// and caching it on miss.
func (s *Server) planBatch(hash string, c *tqsim.Circuit, m *tqsim.NoiseModel, shots int, mode string, opt tqsim.Options) (*cachedPlan, bool, *httpError) {
	key := fmt.Sprintf("%s|%d", hash, shots)
	s.planMu.Lock()
	cp, ok := s.planCache.get(key)
	s.planMu.Unlock()
	if ok {
		s.stats[statPlanHits].Add(1)
		return cp, true, nil
	}
	s.stats[statPlanMisses].Add(1)

	var plan *tqsim.Plan
	if mode == "baseline" {
		plan = tqsim.PlanBaseline(c, shots)
	} else {
		plan = tqsim.PlanDCP(c, m, shots, opt)
	}
	// The planner admission-checks against the server budget even for
	// explicit backends: its fitDense arithmetic is the single source of
	// peak-memory truth.
	budgetOpt := opt
	if budgetOpt.MemoryBudgetBytes == 0 {
		budgetOpt.MemoryBudgetBytes = s.cfg.MemoryBudgetBytes
	}
	decision, err := tqsim.DecidePlan(plan, m, budgetOpt)
	if err != nil {
		s.stats[statMemory].Add(1)
		return nil, false, errf(http.StatusRequestEntityTooLarge, "planner: %v", err)
	}
	cp = &cachedPlan{plan: plan, decision: decision}
	s.planMu.Lock()
	evicted := s.planCache.add(key, cp)
	s.planMu.Unlock()
	if evicted > 0 {
		s.stats[statPlanEvicted].Add(uint64(evicted))
	}
	return cp, false, nil
}

// circuitHash keys the plan cache: the circuit's structural digest plus
// every option that shapes the plan or the decision. The digest covers the
// full gate content — including raw-unitary matrices with no QASM 2.0
// form. The previous key hashed a canonical QASM rendering and fell back
// to name/width/length when serialization failed, so two same-shape
// circuits differing only in an explicit unitary collided and the second
// silently executed the first one's cached plan (and its gate list).
func circuitHash(digest, noiseName, mode string, opt *tqsim.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\x00%s\x00%s\x00%g\x00%d\x00%d\x00%s\x00%d\x00%d\x00%g",
		digest, noiseName, mode, opt.CopyCost, opt.MaxLevels, opt.MemoryBudgetBytes,
		opt.Backend, opt.ClusterNodes, opt.Parallelism, opt.Epsilon)
	return hex.EncodeToString(h.Sum(nil))
}

// BatchSeed derives batch i's trajectory seed from the job seed. Batch 0
// keeps the job seed, so single-batch jobs are byte-identical to
// tqsim.RunTQSim at the same seed; later batches use statistically
// independent split streams, deterministically.
func BatchSeed(seed uint64, i int) uint64 {
	return rng.SeedAt(seed, uint64(i))
}

// errQueueFull reports acquire rejected a submission because MaxConcurrent
// running plus QueueDepth queued requests are already admitted.
var errQueueFull = errors.New("queue full")

// acquire takes an execution slot, bounded by MaxConcurrent running plus
// QueueDepth waiting. Returns errQueueFull when the queue is full, and the
// context's error when the caller goes away while queued. The slot wait
// used to ignore the context entirely: a client that disconnected while
// queued at capacity still took a slot when one freed, ran every batch
// into the dead connection, and booked as failed — the cancellation that
// per-batch ctx checks catch mid-run was invisible before the run started.
func (s *Server) acquire(ctx context.Context) error {
	s.pendMu.Lock()
	if s.pending >= s.cfg.MaxConcurrent+s.cfg.QueueDepth {
		s.pendMu.Unlock()
		return errQueueFull
	}
	s.pending++
	s.pendMu.Unlock()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		// Undo the pending claim exactly the way release would, minus the
		// slot this request never got — including the idle signal DrainWait
		// blocks on, so a drain doesn't hang on a request that left the
		// queue sideways.
		s.pendMu.Lock()
		s.pending--
		if s.pending == 0 && s.idleCh != nil {
			close(s.idleCh)
			s.idleCh = nil
		}
		s.pendMu.Unlock()
		return ctx.Err()
	}
}

func (s *Server) release() {
	<-s.slots
	s.pendMu.Lock()
	s.pending--
	if s.pending == 0 && s.idleCh != nil {
		close(s.idleCh)
		s.idleCh = nil
	}
	s.pendMu.Unlock()
}

// reserveMemory admits a job against the shared budget using the planner's
// peak estimate. 413 when the job can never fit, 503 when it doesn't fit
// right now.
func (s *Server) reserveMemory(est int64) *httpError {
	if s.cfg.MemoryBudgetBytes <= 0 {
		return nil
	}
	if est > s.cfg.MemoryBudgetBytes {
		s.stats[statMemory].Add(1)
		return errf(http.StatusRequestEntityTooLarge,
			"estimated peak %s exceeds the server budget %s",
			hpcmodel.FormatBytes(float64(est)), hpcmodel.FormatBytes(float64(s.cfg.MemoryBudgetBytes)))
	}
	s.memMu.Lock()
	defer s.memMu.Unlock()
	if s.memInUse+est > s.cfg.MemoryBudgetBytes {
		s.stats[statMemory].Add(1)
		return errf(http.StatusServiceUnavailable,
			"estimated peak %s does not fit the budget right now (%s of %s in use); retry",
			hpcmodel.FormatBytes(float64(est)), hpcmodel.FormatBytes(float64(s.memInUse)),
			hpcmodel.FormatBytes(float64(s.cfg.MemoryBudgetBytes)))
	}
	s.memInUse += est
	return nil
}

func (s *Server) releaseMemory(est int64) {
	if s.cfg.MemoryBudgetBytes <= 0 {
		return
	}
	s.memMu.Lock()
	s.memInUse -= est
	s.memMu.Unlock()
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if s.Draining() {
		s.rejectDraining(w)
		return
	}
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, herr := s.prepare(&req)
	if herr != nil {
		s.stats[statFailed].Add(1)
		writeError(w, herr.status, herr.msg)
		return
	}
	// The result-store lookup runs before the queue: a replay writes
	// already-merged bytes and must not wait behind — or consume — an
	// execution slot or any memory budget.
	key := ""
	if s.results != nil {
		key = jobResultKey(j)
		if blob, ok := s.results.Get(key); ok && s.replayJob(w, j, blob) {
			s.stats[statResultsHits].Add(1)
			s.stats[statCompleted].Add(1)
			s.recordLatency(start)
			return
		}
		s.stats[statResultsMisses].Add(1)
	}
	ctx := r.Context()
	if err := s.acquire(ctx); err != nil {
		if errors.Is(err, errQueueFull) {
			s.stats[statQueueFull].Add(1)
			writeError(w, http.StatusTooManyRequests,
				fmt.Sprintf("queue full (%d running + %d queued)", s.cfg.MaxConcurrent, s.cfg.QueueDepth))
			return
		}
		// The client disconnected while queued: the connection is gone, so
		// there is nothing to write — book the job canceled, not failed.
		s.stats[statCanceled].Add(1)
		return
	}
	defer s.release()

	// Multi-batch jobs shard across the worker pool when one is configured;
	// single-batch jobs always run locally (there is nothing to shard).
	distributed := s.pool != nil && j.numBatches() > 1
	if !distributed {
		// Memory is reserved only once the job holds an execution slot:
		// queued jobs consume no state memory, so they must not pin the
		// budget against the jobs actually running. Distributed jobs
		// reserve on the workers that execute their shards (and locally
		// only for a local fallback).
		if herr := s.reserveMemory(j.estPeak); herr != nil {
			writeError(w, herr.status, herr.msg)
			return
		}
		defer s.releaseMemory(j.estPeak)
	}

	if j.stream {
		s.runStreaming(ctx, w, j, distributed, key, start)
		return
	}
	var rec *jobRecorder
	var onBatch func(*batchResult) error
	if key != "" {
		rec = &jobRecorder{}
		onBatch = func(br *batchResult) error { rec.observe(br); return nil }
	}
	resp, herr := s.runJob(ctx, j, distributed, onBatch)
	if herr != nil {
		s.countJobError(ctx, herr)
		writeError(w, herr.status, herr.msg)
		return
	}
	s.stats[statCompleted].Add(1)
	s.recordLatency(start)
	if key != "" {
		s.storeJob(key, resp, rec)
	}
	writeJSON(w, http.StatusOK, resp)
}

// countJobError books a finished-unsuccessfully job under the right
// counter: client-cancelled jobs are canceled, everything else failed.
// The context check catches failures that are really disconnects in
// disguise — e.g. a streaming write to a connection the client already
// closed surfaces as a stream error before the next per-batch ctx check.
func (s *Server) countJobError(ctx context.Context, herr *httpError) {
	if herr.status == statusClientClosedRequest || ctx.Err() != nil {
		s.stats[statCanceled].Add(1)
	} else {
		s.stats[statFailed].Add(1)
	}
}

// batchResult is one executed batch, engine-agnostic: local batches come
// from tqsim.RunPlanContext, remote ones from a worker's ShardBatch.
type batchResult struct {
	index              int
	seed               uint64
	outcomes           int
	counts             map[uint64]int
	backend, structure string
}

// runJob executes the job's batches — sharded across the worker pool when
// distributed, sequentially in-process otherwise — and merges histograms.
// onBatch, when non-nil, observes each batch result as it completes (the
// streaming hook); in distributed mode completion order is not
// deterministic, batch contents and the merge are.
func (s *Server) runJob(ctx context.Context, j *job, distributed bool, onBatch func(*batchResult) error) (*JobResponse, *httpError) {
	start := time.Now()
	var (
		merged             map[uint64]int
		outcomes           int
		backend, structure string
		herr               *httpError
	)
	if distributed {
		merged, outcomes, backend, structure, herr = s.runDistributed(ctx, j, onBatch)
	} else {
		merged, outcomes, backend, structure, herr = s.runBatches(ctx, j, 0, j.numBatches(), onBatch)
	}
	if herr != nil {
		return nil, herr
	}
	return &JobResponse{
		Circuit:     j.circuit.Name,
		Width:       j.circuit.NumQubits,
		Backend:     backend,
		Structure:   structure,
		Outcomes:    outcomes,
		Batches:     j.numBatches(),
		Counts:      countsJSON(merged),
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		Decision:    decisionJSON(j.decision),
		PlanHit:     j.planHit,
		Distributed: distributed,
	}, nil
}

// runBatches executes batches [from, to) in-process, threading ctx into the
// executor so a client disconnect (or a coordinator re-leasing this shard)
// stops in-flight trajectory work instead of computing results nobody will
// read. Returns the merged histogram over the executed range.
func (s *Server) runBatches(ctx context.Context, j *job, from, to int, onBatch func(*batchResult) error) (map[uint64]int, int, string, string, *httpError) {
	merged := make(map[uint64]int)
	outcomes := 0
	backend, structure := "", ""
	// Boundary-snapshot sets for this range's (at most two) batch sizes,
	// assembled from the cross-job cache. A nil map value remembers an
	// assembly failure so it isn't retried per batch.
	var prefixBySize map[int]*tqsim.PrefixSnapshots
	for i := from; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return nil, 0, "", "", errf(statusClientClosedRequest, "cancelled before batch %d: %v", i, err)
		}
		cp := j.planFor(i)
		opt := j.opt
		if opt.Backend == tqsim.AutoBackend {
			// Execute exactly the configuration the job was admitted on:
			// re-deciding inside RunPlan would ignore the server budget and
			// could run more workers (or another engine) than the reserved
			// estimate covers.
			opt.Backend = cp.decision.Backend
			opt.Parallelism = cp.decision.Parallelism
			if opt.ClusterNodes == 0 {
				opt.ClusterNodes = cp.decision.ClusterNodes
			}
		}
		opt.Seed = BatchSeed(j.opt.Seed, i)
		// Prefix reuse is gated exactly like the executor gates it — dense
		// plain backend, Pauli-only noise — so a batch never pays for
		// snapshots an engine would ignore. Reuse is histogram-preserving:
		// a no-fire segment adopts the cached ideal state the executor
		// would have recomputed, RNG consumption unchanged.
		var prefix *tqsim.PrefixSnapshots
		if s.snapCache != nil && opt.Backend == "statevec" && j.noise.PauliOnly() {
			size := j.batchShots(i)
			p, ok := prefixBySize[size]
			if !ok {
				p, _ = s.snapCache.ForPlan(cp.plan) // nil on error: run unprefixed
				if prefixBySize == nil {
					prefixBySize = make(map[int]*tqsim.PrefixSnapshots, 2)
				}
				prefixBySize[size] = p
			}
			prefix = p
		}
		res, err := tqsim.RunPlanPrefixed(ctx, cp.plan, j.noise, opt, prefix)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, 0, "", "", errf(statusClientClosedRequest, "batch %d cancelled: %v", i, err)
			}
			return nil, 0, "", "", errf(http.StatusUnprocessableEntity, "batch %d: %v", i, err)
		}
		s.stats[statBatches].Add(1)
		metrics.MergeCounts(merged, res.Counts)
		outcomes += res.Outcomes
		backend = res.BackendName
		structure = res.Structure
		if onBatch != nil {
			if err := onBatch(&batchResult{
				index: i, seed: opt.Seed, outcomes: res.Outcomes, counts: res.Counts,
				backend: res.BackendName, structure: res.Structure,
			}); err != nil {
				return nil, 0, "", "", errf(http.StatusInternalServerError, "stream: %v", err)
			}
		}
	}
	return merged, outcomes, backend, structure, nil
}

// runStreaming writes the NDJSON stream: a plan header, one line per
// batch, and a final done line with the merged histogram. A non-empty
// storeKey records the finished job in the result store. start is the
// request receipt time, for the completed-request latency histogram.
func (s *Server) runStreaming(ctx context.Context, w http.ResponseWriter, j *job, distributed bool, storeKey string, start time.Time) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(line *batchLine) error {
		if err := enc.Encode(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}
	// A failed plan-header emit means the client is already gone: abort
	// before admitting any batch work. The job books as canceled (the
	// client disconnected, the request wasn't bad) and nothing runs —
	// previously the emit error was discarded and the whole job executed
	// into a dead connection.
	if err := emit(&batchLine{
		Type:      "plan",
		Batches:   j.numBatches(),
		Structure: j.planFor(0).plan.Structure(),
		Backend:   j.decision.Backend,
		Decision:  decisionJSON(j.decision),
	}); err != nil {
		s.stats[statCanceled].Add(1)
		return
	}
	var rec *jobRecorder
	if storeKey != "" {
		rec = &jobRecorder{}
	}
	resp, herr := s.runJob(ctx, j, distributed, func(br *batchResult) error {
		if rec != nil {
			rec.observe(br)
		}
		return emit(&batchLine{
			Type:   "batch",
			Batch:  br.index,
			Shots:  br.outcomes,
			Seed:   br.seed,
			Counts: countsJSON(br.counts),
		})
	})
	if herr != nil {
		s.countJobError(ctx, herr)
		_ = emit(&batchLine{Type: "error", Error: herr.msg})
		return
	}
	s.stats[statCompleted].Add(1)
	s.recordLatency(start)
	if storeKey != "" {
		s.storeJob(storeKey, resp, rec)
	}
	_ = emit(&batchLine{
		Type:      "done",
		Batches:   resp.Batches,
		Outcomes:  resp.Outcomes,
		Counts:    resp.Counts,
		ElapsedMS: resp.ElapsedMS,
	})
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	j, herr := s.prepare(&req)
	if herr != nil {
		writeError(w, herr.status, herr.msg)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"circuit":   j.circuit.Name,
		"width":     j.circuit.NumQubits,
		"structure": j.planFor(0).plan.Structure(),
		"batches":   j.numBatches(),
		"decision":  decisionJSON(j.decision),
		"explain":   j.decision.String(),
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	drainRequest(r)
	if s.Draining() {
		// Health checks fail during drain so load balancers stop routing
		// new traffic while in-flight jobs finish.
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "worker": s.cfg.WorkerMode})
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	drainRequest(r)
	writeJSON(w, http.StatusOK, map[string]any{
		"backends": append([]string{tqsim.AutoBackend}, tqsim.Backends()...),
	})
}

// Snapshot returns the current counters (also served at /v1/stats).
func (s *Server) Snapshot() Stats {
	s.memMu.Lock()
	inUse := s.memInUse
	s.memMu.Unlock()
	s.planMu.Lock()
	planEntries := s.planCache.len()
	s.planMu.Unlock()
	st := Stats{
		JobsCompleted:     s.stats[statCompleted].Load(),
		JobsFailed:        s.stats[statFailed].Load(),
		JobsCanceled:      s.stats[statCanceled].Load(),
		RejectedQueueFull: s.stats[statQueueFull].Load(),
		RejectedMemory:    s.stats[statMemory].Load(),
		RejectedDraining:  s.stats[statDraining].Load(),
		BatchesRun:        s.stats[statBatches].Load(),
		SweepsCompleted:   s.stats[statSweepsCompleted].Load(),
		SweepPointsRun:    s.stats[statSweepPoints].Load(),
		PlanCacheHits:     s.stats[statPlanHits].Load(),
		PlanCacheMisses:   s.stats[statPlanMisses].Load(),
		PlanCacheEvicted:  s.stats[statPlanEvicted].Load(),
		PlanCacheEntries:  planEntries,
		MemoryInUseBytes:  inUse,
		Draining:          s.Draining(),
		ShardsDispatched:  s.stats[statShardsDispatched].Load(),
		ShardsRequeued:    s.stats[statShardsRequeued].Load(),
		WorkerFailures:    s.stats[statWorkerFailures].Load(),
		LeaseRetries:      s.stats[statLeaseRetries].Load(),
		ChecksumFailures:  s.stats[statChecksumFails].Load(),
		RetryAfterWaits:   s.stats[statRetryAfterWaits].Load(),
		WorkersJoined:     s.stats[statWorkersJoined].Load(),
		WorkersRevived:    s.stats[statWorkersRevived].Load(),
	}
	if s.pool != nil {
		st.WorkersAlive = s.aliveWorkers()
		st.WorkersTotal = len(s.pool.snapshot())
		st.Workers = s.workerStats()
	}
	st.ResultsHits = s.stats[statResultsHits].Load()
	st.ResultsMisses = s.stats[statResultsMisses].Load()
	if s.results != nil {
		st.ResultsEntries = s.results.Len()
		st.ResultsBytes = s.results.Bytes()
	}
	if s.snapCache != nil {
		st.SnapshotHits = s.snapCache.Hits()
		st.SnapshotMisses = s.snapCache.Misses()
		st.SnapshotBytes = s.snapCache.Bytes()
	}
	if n := s.reqLat.Count(); n > 0 {
		st.LatencyCount = n
		st.LatencyMeanMS = latMS(s.reqLat.Mean())
		st.LatencyP50MS = latMS(s.reqLat.Quantile(0.50))
		st.LatencyP95MS = latMS(s.reqLat.Quantile(0.95))
		st.LatencyP99MS = latMS(s.reqLat.Quantile(0.99))
	}
	return st
}

// latMS renders a histogram duration as fractional milliseconds.
func latMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	drainRequest(r)
	writeJSON(w, http.StatusOK, s.Snapshot())
}

// countsJSON renders a histogram with decimal string keys. Response bytes
// are deterministic because encoding/json serializes map keys in sorted
// (lexicographic) order itself.
func countsJSON(counts map[uint64]int) map[string]int {
	out := make(map[string]int, len(counts))
	for k, v := range counts {
		out[strconv.FormatUint(k, 10)] = v
	}
	return out
}

// drainRequest consumes any unread request body. net/http only cancels
// r.Context() on client disconnect once the body has been read, so a
// handler that never touches it can park forever on a dead connection —
// the PR 5 lease-timeout footgun. Harmless on body-less GETs.
func drainRequest(r *http.Request) {
	_, _ = io.Copy(io.Discard, r.Body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) //lint:allow errdrop -- terminal response write: the status is already committed, nothing to abort
}

// writeError renders an error body. Every 503 carries a Retry-After
// header: all of them (queue, memory, drain, worker-busy) mean "the
// request is fine, the capacity isn't", and well-behaved clients key
// their backoff on the header's presence.
func writeError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, map[string]string{"error": msg})
}
