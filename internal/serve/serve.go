// Package serve is the multi-tenant profiling service behind cmd/teaserve:
// it accepts (workload | inline program, RunConfig, techniques) jobs over
// HTTP/JSON, runs them through a bounded worker pool, and serves PICS
// profiles back — the long-running counterpart to the one-shot teaexp and
// teaprof CLIs (docs/API.md is the wire reference, docs/OPERATIONS.md the
// operator guide).
//
// The service layers three admission mechanisms in front of the worker
// pool, in order:
//
//  1. Request validation. A job request is parsed strictly (unknown
//     fields rejected), bounded (Config.MaxBodyBytes, MaxIters,
//     MaxScale), and converted to a typed *simerr.Error on any defect —
//     no request body can panic the server (FuzzSubmit pins this at the
//     HTTP boundary, the same way the chaos harness pins the
//     capture/replay pipeline).
//  2. Per-tenant token-bucket quotas (Config.TenantRate/TenantBurst).
//     A tenant over its rate receives 429 with a Retry-After telling it
//     exactly when the next token arrives — cooperative backpressure.
//  3. Queue-depth admission control. The job queue is a bounded channel
//     (Config.QueueDepth); when it is full the server sheds load with
//     429 + Retry-After instead of buffering unboundedly.
//
// Admitted jobs run through analysis.RunTechniques, so every capture
// is deduplicated across tenants by the content-addressed trace store:
// N tenants submitting the same (program, core configuration) cost one
// simulation, and the rest replay shared bytes — each job only to the
// techniques it requested. Failures surface as the
// simerr taxonomy rendered into a JSON error envelope with a stable
// kind → HTTP status mapping (see ErrorBody and docs/API.md). Job
// cancellation — client DELETE, per-job timeout, or server shutdown —
// threads one context.Context end to end into the simulator loop.
package serve

import (
	"context"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/journal"
	"repro/internal/tracestore"
)

// Config sizes the service. The zero value is not ready; start from
// DefaultConfig. docs/OPERATIONS.md discusses how to tune each knob.
type Config struct {
	// Workers is the worker-pool size: the number of jobs simulated
	// concurrently (default: 4). Captures are single-threaded, but each
	// job's replay additionally fans out across GOMAXPROCS, so the
	// useful range is ~NumCPU/2 .. NumCPU.
	Workers int
	// QueueDepth bounds the admission queue; a submit that finds the
	// queue full is rejected with 429 + Retry-After (default: 64).
	QueueDepth int
	// TenantRate is the per-tenant token-bucket refill rate in
	// jobs/second; 0 or negative disables quotas (default: 50).
	TenantRate float64
	// TenantBurst is the token-bucket capacity: how many jobs a tenant
	// may submit back to back before the rate limit bites (default: 100).
	TenantBurst float64
	// JobTimeout bounds one job's wall-clock run time; the job fails
	// with kind "canceled" when it trips. 0 disables the per-job
	// deadline — the simulator's own runaway and watchdog guards still
	// apply (default: 2m).
	JobTimeout time.Duration
	// MaxBodyBytes caps a request body; larger submissions receive 413
	// (default: 1 MiB).
	MaxBodyBytes int64
	// MaxIters caps an inline program's iteration count (default: 1<<20).
	MaxIters int
	// MaxScale caps a job's Scale knob (default: 4.0).
	MaxScale float64
	// KeepFinished bounds the finished-job registry: beyond it, the
	// oldest terminal jobs are evicted and their results become 404
	// (default: 16384).
	KeepFinished int
	// JournalDir enables the durability layer: job transitions are
	// journaled to a WAL under this directory and replayed by New on
	// startup (empty: memory-only, nothing survives a restart). See
	// docs/OPERATIONS.md "Durability & recovery".
	JournalDir string
	// JournalFS overrides the journal's filesystem — the fault-injection
	// seam (default: the real filesystem).
	JournalFS journal.FS
	// Logf receives operational log lines (recovery summary, degraded-
	// mode transitions); nil discards them.
	Logf func(format string, args ...any)
	// Now is the clock, injectable for tests (default: time.Now).
	Now func() time.Time
}

// DefaultConfig returns the documented defaults.
func DefaultConfig() Config {
	return Config{
		Workers:      4,
		QueueDepth:   64,
		TenantRate:   50,
		TenantBurst:  100,
		JobTimeout:   2 * time.Minute,
		MaxBodyBytes: 1 << 20,
		MaxIters:     1 << 20,
		MaxScale:     4.0,
		KeepFinished: 16384,
	}
}

// withDefaults fills unset fields so a partially specified Config (a
// test overriding one knob) behaves like DefaultConfig elsewhere.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Workers <= 0 {
		c.Workers = d.Workers
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.TenantBurst <= 0 {
		c.TenantBurst = d.TenantBurst
	}
	if c.JobTimeout < 0 {
		c.JobTimeout = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.MaxIters <= 0 {
		c.MaxIters = d.MaxIters
	}
	if c.MaxScale <= 0 {
		c.MaxScale = d.MaxScale
	}
	if c.KeepFinished <= 0 {
		c.KeepFinished = d.KeepFinished
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the profiling service: an HTTP handler (Handler) in front
// of a job registry and a worker pool (Run). All methods are safe for
// concurrent use.
type Server struct {
	cfg     Config
	queue   chan *job
	quotas  *quotaTable
	journal *journal.Journal // nil in memory-only mode

	mu       sync.Mutex
	jobs     map[string]*job
	finished []string // terminal job IDs, oldest first (retention ring)
	seq      uint64
	stats    counters
	dur      durability
}

// counters aggregates service traffic for /v1/stats (guarded by
// Server.mu).
type counters struct {
	submitted     uint64
	rejectedQuota uint64
	rejectedQueue uint64
	byStatus      map[Status]uint64 // terminal + live counts, kept incrementally
	tenants       map[string]*TenantStats
}

// TenantStats is one tenant's traffic, reported by /v1/stats.
type TenantStats struct {
	// Submitted counts jobs admitted to the queue.
	Submitted uint64 `json:"submitted"`
	// RejectedQuota counts submissions refused by the token bucket.
	RejectedQuota uint64 `json:"rejected_quota"`
	// RejectedQueue counts submissions refused by queue admission.
	RejectedQueue uint64 `json:"rejected_queue"`
}

// New builds a Server from cfg (unset fields take DefaultConfig
// values). The server shares the process-wide trace store installed via
// analysis.SetTraceStore, so its capture dedup spans every tenant — and
// any disk tier the operator attached.
//
// With Config.JournalDir set, New opens (or creates) the job journal
// and replays it before accepting traffic: terminal jobs come back
// with byte-identical results, interrupted jobs are re-enqueued. A
// journal that cannot be opened — mid-stream corruption, an alien
// file, an unreadable directory — fails New with a typed error rather
// than silently discarding history; torn tails are repaired, not
// fatal.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		quotas: newQuotaTable(cfg.TenantRate, cfg.TenantBurst, cfg.Now),
		jobs:   make(map[string]*job),
		stats: counters{
			byStatus: make(map[Status]uint64),
			tenants:  make(map[string]*TenantStats),
		},
	}
	var requeue []*job
	if cfg.JournalDir != "" {
		jnl, rec, err := journal.Open(cfg.JournalDir, cfg.JournalFS)
		if err != nil {
			return nil, err
		}
		s.journal = jnl
		requeue = s.restore(rec)
		r := s.dur.recovery
		cfg.Logf("teaserve: journal %s replayed: %d records (%d torn bytes truncated), %d done / %d failed / %d canceled restored, %d requeued",
			cfg.JournalDir, r.Replayed, r.TornBytes, r.RestoredDone, r.RestoredFailed, r.RestoredCanceled, r.Requeued)
	}
	// Recovered jobs must not consume new submissions' admission
	// budget: the queue is sized for both.
	s.queue = make(chan *job, cfg.QueueDepth+len(requeue))
	for _, j := range requeue {
		s.queue <- j
	}
	return s, nil
}

// Run operates the worker pool until ctx is canceled, then joins every
// worker and returns. In-flight jobs observe the cancellation through
// their derived contexts and finish as canceled; queued jobs are
// drained on the next pickup and canceled without running.
func (s *Server) Run(ctx context.Context) {
	var wg sync.WaitGroup
	for i := 0; i < s.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-ctx.Done():
					return
				case j := <-s.queue:
					s.runJob(ctx, j)
				}
			}
		}()
	}
	wg.Wait()
}

// Idle reports whether no job is queued or running — the signal the
// drain phase of a graceful shutdown waits for.
func (s *Server) Idle() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue) == 0 && s.stats.byStatus[StatusQueued] == 0 && s.stats.byStatus[StatusRunning] == 0
}

// runJob executes one admitted job end to end: transition to running,
// derive the job's context (server lifetime ∧ per-job timeout ∧ client
// cancel), run the capture/replay pipeline, and record the terminal
// state. ctx is the worker pool's root; every path into the simulator
// derives from it.
//
// Every terminal state is journaled before it is published: a status a
// client has observed is already in the WAL, so a crash right after
// the observation restores the job instead of re-running it. In
// degraded memory-only mode the journal calls are no-ops and the state
// is still published.
func (s *Server) runJob(ctx context.Context, j *job) {
	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.cfg.JobTimeout > 0 {
		var tcancel context.CancelFunc
		jctx, tcancel = context.WithTimeout(jctx, s.cfg.JobTimeout)
		defer tcancel()
	}
	if start := s.cfg.Now(); !j.begin(start, cancel) {
		// Canceled while queued.
		body := &ErrorBody{Kind: kindCanceled, Status: statusForKind(kindCanceled), Message: "canceled before running"}
		s.journalTerminal(j, StatusCanceled, body)
		j.fail(start, body, StatusCanceled)
		s.noteTransition(StatusQueued, StatusCanceled)
		return
	}
	s.noteTransition(StatusQueued, StatusRunning)
	s.journalAppend(j, recRunning, nil)

	br, err := analysis.RunTechniques(jctx, j.w, j.prog, j.rc, j.techniques)
	end := s.cfg.Now()
	if err != nil {
		body := errorBody(err)
		status := StatusFailed
		if body.Kind == kindCanceled {
			status = StatusCanceled
		}
		s.journalTerminal(j, status, body)
		j.fail(end, body, status)
		s.noteTerminal(j, StatusRunning, status)
		return
	}
	profiles, techErrs, rerr := renderProfiles(br, j.techniques)
	if rerr != nil {
		body := errorBody(rerr)
		s.journalTerminal(j, StatusFailed, body)
		j.fail(end, body, StatusFailed)
		s.noteTerminal(j, StatusRunning, StatusFailed)
		return
	}
	s.journalDone(j, profiles, techErrs)
	j.complete(end, profiles, techErrs)
	s.noteTerminal(j, StatusRunning, StatusDone)
}

// noteTransition moves one job between status buckets in the counters.
func (s *Server) noteTransition(from, to Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.byStatus[from] > 0 {
		s.stats.byStatus[from]--
	}
	s.stats.byStatus[to]++
}

// noteTerminal records a job reaching a terminal status and applies the
// finished-job retention cap.
func (s *Server) noteTerminal(j *job, from, to Status) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stats.byStatus[from] > 0 {
		s.stats.byStatus[from]--
	}
	s.stats.byStatus[to]++
	s.finished = append(s.finished, j.id)
	for len(s.finished) > s.cfg.KeepFinished {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// register admits a validated job: charge the tenant's counters, assign
// an ID, and enqueue. It reports the admission outcome; on queue-full
// the job is not registered (and nothing is journaled — a rejected job
// must not resurrect on recovery).
func (s *Server) register(j *job) (ok bool, queueDepth int) {
	s.mu.Lock()
	s.seq++
	j.id = "j-" + pad6(s.seq)
	if s.journal != nil {
		// Created before the enqueue so a worker that grabs the job
		// immediately still orders its records after the submitted one.
		j.journaled = make(chan struct{})
	}
	select {
	case s.queue <- j:
	default:
		s.stats.rejectedQueue++
		s.tenantStatsLocked(j.tenant).RejectedQueue++
		s.mu.Unlock()
		return false, len(s.queue)
	}
	s.jobs[j.id] = j
	s.stats.submitted++
	s.stats.byStatus[StatusQueued]++
	s.tenantStatsLocked(j.tenant).Submitted++
	depth := len(s.queue)
	s.mu.Unlock()
	s.journalSubmitted(j)
	return true, depth
}

// tenantStatsLocked returns (creating if needed) the tenant's counter
// block. Callers hold s.mu.
func (s *Server) tenantStatsLocked(tenant string) *TenantStats {
	ts := s.stats.tenants[tenant]
	if ts == nil {
		ts = &TenantStats{}
		s.stats.tenants[tenant] = ts
	}
	return ts
}

// lookup returns the registered job, if it is still retained.
func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retryAfter estimates when a rejected submission is worth retrying:
// the time for the worker pool to turn over half the queue, floored at
// one second. It is a heuristic — the client contract is only "wait at
// least this long", and the header is what makes the backpressure
// cooperative rather than a retry stampede.
func (s *Server) retryAfter() time.Duration {
	depth := len(s.queue)
	secs := 1 + depth/(2*s.cfg.Workers)
	return time.Duration(secs) * time.Second
}

// pad6 renders a sequence number as a fixed-width decimal, so job IDs
// sort lexically in submission order.
func pad6(n uint64) string {
	s := strconv.FormatUint(n, 10)
	for len(s) < 6 {
		s = "0" + s
	}
	return s
}

// StoreSnapshot exposes the shared trace store's traffic counters (the
// /v1/stats cache section).
func StoreSnapshot() tracestore.Stats {
	return analysis.TraceStore().Snapshot()
}
