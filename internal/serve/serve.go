// Package serve is the fault-tolerant multi-tenant MPMB search daemon
// behind cmd/mpmb-serve: a long-lived HTTP surface over the engine's
// Search/SearchContext front door, built so that heavy concurrent
// traffic degrades predictably instead of catastrophically.
//
// The robustness contract, end to end:
//
//   - Admission control. Submissions pass a per-tenant concurrency cap
//     and a token-bucket trial budget, then a bounded FIFO queue. A full
//     queue or an exhausted budget answers 429 with a Retry-After hint —
//     the daemon never buffers unbounded work in memory.
//   - Isolation. Each job runs with its own Observer, its own event ring
//     and journal, and a panic shield: one poisoned job fails alone.
//     Per-job deadlines and stall watchdogs reuse the engine's
//     Options.Deadline / Options.StallTimeout machinery, so a stuck job
//     surfaces a typed error instead of pinning a worker forever.
//   - Durability. Running jobs checkpoint periodically through the
//     retrying CheckpointStore. SIGTERM stops admission (readiness flips
//     to not-ready), drains in-flight jobs up to a grace period,
//     checkpoints whatever is still running, and persists every job's
//     manifest. A restarted daemon re-admits persisted jobs and resumes
//     them from their checkpoints — the finished Result is bit-identical
//     to an uninterrupted run, by the engine's (Seed, trial index)
//     stream-derivation guarantee.
//   - Reuse. Graphs and Searchers are cached by graph fingerprint
//     (bigraph checksum), and identical preparing phases are
//     single-flighted inside the Searcher, so repeated queries on the
//     same graph skip the preparing phase entirely.
package serve

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/dist"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Config sizes the daemon. The zero value is not usable: construct via
// New, which applies the documented defaults to zero fields.
type Config struct {
	// GraphRoot is the directory job graph names resolve under. Names
	// must be local (no absolute paths, no ".." escapes).
	GraphRoot string
	// StateDir holds job manifests, checkpoints, results and event
	// journals; it is created if missing. Everything a restart needs to
	// resume lives here.
	StateDir string

	// QueueDepth bounds the admission queue across all tenants
	// (default 64). Submissions beyond it are rejected with 429.
	QueueDepth int
	// Workers is the number of jobs run concurrently (default 2).
	Workers int

	// TenantJobs caps one tenant's active (queued + running) jobs
	// (default 4). TenantTrialRate and TenantTrialBurst shape the
	// per-tenant token bucket: admission charges Trials + PrepTrials
	// tokens, the bucket refills at TenantTrialRate tokens/second up to
	// TenantTrialBurst (defaults 1e6 and 2e7).
	TenantJobs       int
	TenantTrialRate  float64
	TenantTrialBurst float64

	// MaxTrials rejects single jobs whose Trials + PrepTrials exceed it
	// (0 = no cap) — a fat-finger guard distinct from the rate limiter.
	MaxTrials int

	// CheckpointEvery is the periodic checkpoint interval for resumable
	// jobs (default 30s; negative disables periodic checkpointing —
	// drain still checkpoints).
	CheckpointEvery time.Duration
	// DrainGrace is how long Drain lets in-flight jobs finish naturally
	// before checkpoint-and-suspending them (default 10s).
	DrainGrace time.Duration

	// JournalEvents persists each job's telemetry event stream as a
	// JSONL journal under StateDir/events (replayable with
	// `mpmb-bench journal`).
	JournalEvents bool

	// GraphCacheSize bounds the fingerprint-keyed graph/Searcher cache
	// (default 16 graphs; least recently used evicted first).
	GraphCacheSize int

	// Dist enables the distributed fan-out control plane: the daemon
	// mounts the /dist/v1 coordinator endpoints next to its job API and
	// hands eligible jobs' sampling trials (os/ols/ols-kl without
	// adaptive options) to the worker fleet instead of the in-process
	// pool. Results stay bit-identical to local runs — every trial's
	// stream derives from (seed, trial index) — but an eligible job
	// makes no progress until at least one worker joins
	// (mpmb-serve -worker -join, or mpmb-search -join).
	Dist bool

	// DistFallback arms the degraded-mode escape hatch for distributed
	// jobs: when the worker fleet stays silent that long, the job's
	// remaining spans run on an in-process fallback worker through the
	// same lease book, the Result stays bit-identical, and the dist→local
	// transition is recorded in Result.Adaptive. Zero keeps the pure
	// control-plane behavior (no progress without workers).
	DistFallback time.Duration

	// RetainTTL evicts terminal jobs (done/failed/cancelled) — manifest,
	// result, event journal, leftover checkpoint — once they have been
	// finished that long (0 = keep forever). RetainMax additionally caps
	// how many terminal jobs are retained, evicting oldest-finished first
	// (0 = unlimited). Queued, running and suspended jobs are never
	// touched: the daemon still owes that work.
	RetainTTL time.Duration
	RetainMax int
	// RetainSweep is the retention sweep cadence (default 1m when either
	// retention knob is set).
	RetainSweep time.Duration
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.TenantJobs == 0 {
		c.TenantJobs = 4
	}
	if c.TenantTrialRate == 0 {
		c.TenantTrialRate = 1e6
	}
	if c.TenantTrialBurst == 0 {
		c.TenantTrialBurst = 2e7
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 30 * time.Second
	}
	if c.DrainGrace == 0 {
		c.DrainGrace = 10 * time.Second
	}
	if c.GraphCacheSize == 0 {
		c.GraphCacheSize = 16
	}
	if c.RetainSweep == 0 {
		c.RetainSweep = time.Minute
	}
	return c
}

// Server is one daemon instance. Construct with New, mount Handler on a
// listener, and call Drain (then Close) to shut down.
type Server struct {
	cfg    Config
	store  *stateStore
	graphs *graphCache
	quotas *quotaBook
	sched  *scheduler
	stats  *serveStats
	coord  *dist.Coordinator // non-nil when Config.Dist is set

	mu   sync.Mutex
	jobs map[string]*Job
	// retired holds the engine counters of jobs evicted from jobs, so
	// the daemon-wide counters never fall (see aggregateMetrics).
	retired telemetry.Metrics

	draining  chan struct{} // closed when admission stops
	drainOnce sync.Once
	retainWG  sync.WaitGroup

	handler http.Handler
}

// New builds a Server over cfg: creates the state layout, recovers
// persisted jobs (resuming interrupted ones from their checkpoints), and
// starts the scheduler workers.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: Config.StateDir is required")
	}
	if cfg.GraphRoot == "" {
		cfg.GraphRoot = "."
	}
	store, err := newStateStore(cfg.StateDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		store:    store,
		graphs:   newGraphCache(cfg.GraphRoot, cfg.GraphCacheSize),
		quotas:   newQuotaBook(cfg.TenantJobs, cfg.TenantTrialRate, cfg.TenantTrialBurst),
		stats:    &serveStats{},
		jobs:     make(map[string]*Job),
		draining: make(chan struct{}),
	}
	if cfg.Dist {
		s.coord = dist.NewCoordinator()
		// Distributed jobs journal their lease book under the state dir,
		// so a daemon killed mid-fan-out replays the merged prefix on
		// restart instead of recomputing it.
		s.coord.Journal = &dist.Journal{Dir: filepath.Join(cfg.StateDir, "dist")}
	}
	recovered, err := s.recover()
	if err != nil {
		return nil, err
	}
	// The queue must hold every recovered job on top of its configured
	// depth: recovery re-admits work the previous process had already
	// accepted, and accepted work is never shed.
	s.sched = newScheduler(s, cfg.Workers, cfg.QueueDepth)
	for _, job := range recovered {
		s.sched.enqueueRecovered(job)
	}
	s.sched.start()
	if cfg.RetainTTL > 0 || cfg.RetainMax > 0 {
		s.retainWG.Add(1)
		go s.retentionLoop()
	}
	s.handler = s.routes()
	return s, nil
}

// Handler returns the daemon's HTTP API (see routes in http.go).
func (s *Server) Handler() http.Handler { return s.handler }

// Draining reports whether admission has stopped (readiness flipped).
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// Drain shuts the daemon down gracefully: admission stops immediately
// (submissions answer 503, /readyz flips to not-ready), in-flight jobs
// get up to DrainGrace to finish naturally, and whatever still runs is
// checkpointed and suspended. Queued jobs stay persisted as queued. The
// ctx bounds the total wait for runners to unwind; Drain is idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { close(s.draining) })
	err := s.sched.drain(ctx, s.cfg.DrainGrace)
	s.retainWG.Wait() // the sweeper exits on the draining close above
	return err
}

// DrainBudget is the wall-clock bound a caller should allow a Drain
// context: the grace period plus the checkpoint-suspension margin.
func (s *Server) DrainBudget() time.Duration {
	return s.cfg.DrainGrace + 35*time.Second
}

// Close is Drain with a generous bound, for defer-style teardown.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainGrace+30*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// recover re-admits persisted jobs after a restart. Interrupted jobs
// (running or suspended at the previous shutdown) and never-started
// queued jobs return to the queue; their runners pick up any checkpoint
// on disk and finish the runs bit-identically. Terminal jobs are loaded
// for status/result queries only.
func (s *Server) recover() ([]*Job, error) {
	manifests, err := s.store.loadManifests()
	if err != nil {
		return nil, err
	}
	sort.Slice(manifests, func(i, j int) bool { return manifests[i].Submitted.Before(manifests[j].Submitted) })
	var requeue []*Job
	for _, m := range manifests {
		job := jobFromManifest(m)
		switch m.State {
		case JobQueued, JobRunning, JobSuspended:
			job.setState(JobQueued, "")
			// Re-admitted work re-occupies its tenant's concurrency slot;
			// the trial budget was spent at original admission and is not
			// charged again.
			s.quotas.recoverActive(job.Tenant)
			if err := s.store.saveManifest(job.manifest()); err != nil {
				return nil, err
			}
			requeue = append(requeue, job)
			s.stats.recovered.Add(1)
		}
		s.mu.Lock()
		s.jobs[job.ID] = job
		s.mu.Unlock()
	}
	return requeue, nil
}

// job looks a job up by id.
func (s *Server) job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// snapshotJobs returns all jobs, newest submission first.
func (s *Server) snapshotJobs() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if !a.Submitted.Equal(b.Submitted) {
			return a.Submitted.After(b.Submitted)
		}
		return a.ID < b.ID
	})
	return out
}

// newJobID returns a 16-hex-digit random job id.
func newJobID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: generating job id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// resolveGraph validates a submitted graph name against GraphRoot:
// local, clean, no escapes.
func (s *Server) resolveGraph(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("graph name is required")
	}
	if filepath.IsAbs(name) || !filepath.IsLocal(name) {
		return "", fmt.Errorf("graph name %q must be a relative path inside the graph root", name)
	}
	path := filepath.Join(s.cfg.GraphRoot, name)
	if _, err := os.Stat(path); err != nil {
		return "", fmt.Errorf("graph %q: %w", name, err)
	}
	return path, nil
}
