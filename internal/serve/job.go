package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// JobState is a job's lifecycle phase.
type JobState string

const (
	// JobQueued: admitted, waiting for a worker slot.
	JobQueued JobState = "queued"
	// JobRunning: a worker is executing trials.
	JobRunning JobState = "running"
	// JobDone: finished; the result is available.
	JobDone JobState = "done"
	// JobFailed: the run errored (stall, panic, bad graph); Error says why.
	JobFailed JobState = "failed"
	// JobCancelled: the client cancelled; a partial result may exist.
	JobCancelled JobState = "cancelled"
	// JobSuspended: checkpointed during drain; a restarted daemon
	// resumes it from the checkpoint.
	JobSuspended JobState = "suspended"
)

// terminal reports whether the state frees the job's quota slot.
func (st JobState) terminal() bool {
	switch st {
	case JobDone, JobFailed, JobCancelled:
		return true
	}
	return false
}

// JobSpec is the client-submitted search request. It mirrors the public
// mpmb.Options fields that make sense over the wire; durations travel
// as milliseconds so specs stay JSON-friendly and restart-stable.
type JobSpec struct {
	// Graph names the input graph, relative to the daemon's graph root.
	Graph string `json:"graph"`

	Method     string  `json:"method,omitempty"`
	Trials     int     `json:"trials,omitempty"`
	PrepTrials int     `json:"prep_trials,omitempty"`
	Seed       uint64  `json:"seed"`
	Mu         float64 `json:"mu,omitempty"`
	Workers    int     `json:"workers,omitempty"`
	// TopK sizes the reported estimate list (default 5).
	TopK int `json:"top_k,omitempty"`

	AuditEvery     int     `json:"audit_every,omitempty"`
	MaxEscalations int     `json:"max_escalations,omitempty"`
	Epsilon        float64 `json:"epsilon,omitempty"`

	// DeadlineMS is the per-attempt wall-clock budget, mapped onto
	// Options.Deadline at run start; the run then stops at the first
	// trial boundary past it with an honest partial result.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// StallTimeoutMS arms the engine's stall watchdog
	// (Options.StallTimeout): a run making no progress that long fails
	// with a typed stall error instead of pinning a worker.
	StallTimeoutMS int64 `json:"stall_timeout_ms,omitempty"`

	// Query variant fields map onto Options.Query. At most one anchor may
	// be set, anchors and communities are mutually exclusive, and
	// adaptive prep requires an OLS-family method — the engine's
	// validation enforces all of it, and handleSubmit surfaces the typed
	// errors as 400s.
	AnchorL       *uint32         `json:"anchor_l,omitempty"`
	AnchorR       *uint32         `json:"anchor_r,omitempty"`
	AnchorEdge    *edgeAnchorSpec `json:"anchor_edge,omitempty"`
	CommunitiesL  []int           `json:"communities_l,omitempty"`
	CommunitiesR  []int           `json:"communities_r,omitempty"`
	CommunityTopK int             `json:"community_top_k,omitempty"`
	AdaptivePrep  bool            `json:"adaptive_prep,omitempty"`
}

// edgeAnchorSpec is the wire form of an edge anchor.
type edgeAnchorSpec struct {
	U uint32 `json:"u"`
	V uint32 `json:"v"`
}

// query builds the Options.Query for the spec's variant fields, or nil
// for a plain global search.
func (sp JobSpec) query() *mpmb.Query {
	q := &mpmb.Query{AdaptivePrep: sp.AdaptivePrep}
	if sp.AnchorL != nil {
		v := mpmb.VertexID(*sp.AnchorL)
		q.AnchorL = &v
	}
	if sp.AnchorR != nil {
		v := mpmb.VertexID(*sp.AnchorR)
		q.AnchorR = &v
	}
	if sp.AnchorEdge != nil {
		q.AnchorEdge = &mpmb.EdgeAnchor{U: mpmb.VertexID(sp.AnchorEdge.U), V: mpmb.VertexID(sp.AnchorEdge.V)}
	}
	if sp.hasCommunity() {
		q.Community = &mpmb.Communities{L: sp.CommunitiesL, R: sp.CommunitiesR, TopK: sp.CommunityTopK}
	}
	if *q == (mpmb.Query{}) {
		return nil
	}
	return q
}

// normalize fills paper defaults the way the CLI does, so persisted
// specs are self-contained and a restarted daemon rebuilds byte-for-byte
// identical options.
func (sp JobSpec) normalize() JobSpec {
	if sp.Method == "" {
		sp.Method = string(mpmb.MethodOLS)
	}
	def := mpmb.DefaultOptions()
	if sp.Trials == 0 {
		sp.Trials = def.Trials
	}
	if sp.PrepTrials == 0 {
		sp.PrepTrials = def.PrepTrials
	}
	if sp.Mu == 0 {
		sp.Mu = def.Mu
	}
	if sp.TopK == 0 {
		sp.TopK = 5
	}
	return sp
}

// options maps the spec onto engine options for one run attempt.
func (sp JobSpec) options(obs *mpmb.Observer, now time.Time) mpmb.Options {
	opt := mpmb.Options{
		Method:         mpmb.Method(sp.Method),
		Trials:         sp.Trials,
		PrepTrials:     sp.PrepTrials,
		Seed:           sp.Seed,
		Mu:             sp.Mu,
		Workers:        sp.Workers,
		AuditEvery:     sp.AuditEvery,
		MaxEscalations: sp.MaxEscalations,
		Epsilon:        sp.Epsilon,
		Observer:       obs,
	}
	if sp.StallTimeoutMS > 0 {
		opt.StallTimeout = time.Duration(sp.StallTimeoutMS) * time.Millisecond
	}
	if sp.DeadlineMS > 0 {
		opt.Deadline = now.Add(time.Duration(sp.DeadlineMS) * time.Millisecond)
	}
	opt.Query = sp.query()
	return opt
}

// cost is the admission charge against the tenant's trial budget.
func (sp JobSpec) cost() float64 {
	c := float64(sp.Trials)
	switch mpmb.Method(sp.Method) {
	case mpmb.MethodOLS, mpmb.MethodOLSKL:
		c += float64(sp.PrepTrials)
	}
	return c
}

// hasCommunity reports whether any community field is set. The engine
// rejects Options.Resume and an explicit Executor for per-community
// queries, so community jobs run unsliced and local; anchored jobs
// checkpoint, drain and distribute like global ones.
func (sp JobSpec) hasCommunity() bool {
	return len(sp.CommunitiesL) > 0 || len(sp.CommunitiesR) > 0 || sp.CommunityTopK != 0
}

// resumable reports whether the job can checkpoint and resume.
func (sp JobSpec) resumable() bool {
	return mpmb.Method(sp.Method) != mpmb.MethodExact && !sp.hasCommunity()
}

// distributable reports whether the job may ride the dist coordinator's
// executor: sampling methods only, no community query, and none of the
// adaptive options — supervision reshapes the trial schedule mid-run,
// which an explicit executor rejects (see Options.Executor).
func (sp JobSpec) distributable() bool {
	switch mpmb.Method(sp.Method) {
	case mpmb.MethodOS, mpmb.MethodOLS, mpmb.MethodOLSKL:
	default:
		return false
	}
	return sp.AuditEvery == 0 && sp.Epsilon == 0 && sp.DeadlineMS == 0 && sp.StallTimeoutMS == 0 &&
		!sp.hasCommunity()
}

// Job is one admitted search: the persisted manifest fields plus the
// live runtime attachments (observer, event log, cancellation).
type Job struct {
	ID        string
	Tenant    string
	Spec      JobSpec
	Submitted time.Time

	mu         sync.Mutex
	state      JobState
	errMsg     string
	started    time.Time
	finished   time.Time
	trialsDone int
	ckptSaved  bool
	resumed    bool // this process resumed the job from a checkpoint
	result     *mpmb.Result
	obs        *mpmb.Observer // live while the runner holds the job

	// cancelled and suspend describe WHY the runner's context fired:
	// cancelled is a client action (terminal), suspend a drain action
	// (checkpoint and park). Set before cancel() so the runner can
	// classify the partial result it gets back.
	cancelMu  sync.Mutex
	cancel    context.CancelFunc
	cancelled bool
	suspend   bool

	events *eventLog
	done   chan struct{} // closed when the runner (or cancel-in-queue) finishes
}

// newJob builds a fresh job in the queued state.
func newJob(id, tenant string, spec JobSpec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Tenant:    tenant,
		Spec:      spec,
		Submitted: now,
		state:     JobQueued,
		events:    newEventLog(eventLogDepth),
		done:      make(chan struct{}),
	}
}

// manifest is the persisted form of a job — everything a restart needs.
type manifest struct {
	ID         string    `json:"id"`
	Tenant     string    `json:"tenant"`
	Spec       JobSpec   `json:"spec"`
	State      JobState  `json:"state"`
	Error      string    `json:"error,omitempty"`
	Submitted  time.Time `json:"submitted"`
	Started    time.Time `json:"started,omitempty"`
	Finished   time.Time `json:"finished,omitempty"`
	TrialsDone int       `json:"trials_done,omitempty"`
	Checkpoint bool      `json:"checkpoint,omitempty"`
}

func (j *Job) manifest() manifest {
	j.mu.Lock()
	defer j.mu.Unlock()
	return manifest{
		ID: j.ID, Tenant: j.Tenant, Spec: j.Spec,
		State: j.state, Error: j.errMsg,
		Submitted: j.Submitted, Started: j.started, Finished: j.finished,
		TrialsDone: j.trialsDone, Checkpoint: j.ckptSaved,
	}
}

func jobFromManifest(m manifest) *Job {
	j := newJob(m.ID, m.Tenant, m.Spec, m.Submitted)
	j.state = m.State
	j.errMsg = m.Error
	j.started, j.finished = m.Started, m.Finished
	j.trialsDone = m.TrialsDone
	j.ckptSaved = m.Checkpoint
	// Terminal jobs are loaded for queries only — their streams are over.
	// A suspended job stays open: recovery requeues it and its runner
	// finalizes it a second time.
	if m.State.terminal() {
		j.events.close()
		close(j.done)
	}
	return j
}

func (j *Job) setState(st JobState, errMsg string) {
	j.mu.Lock()
	j.state = st
	if errMsg != "" {
		j.errMsg = errMsg
	}
	j.mu.Unlock()
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// setObserver publishes the runner's live observer (nil detaches).
func (j *Job) setObserver(obs *mpmb.Observer) {
	j.mu.Lock()
	j.obs = obs
	j.mu.Unlock()
}

// liveMetrics snapshots the runner's observer, or returns the finished
// result's final snapshot; nil when neither exists.
func (j *Job) liveMetrics() *telemetry.Metrics {
	j.mu.Lock()
	obs, res := j.obs, j.result
	j.mu.Unlock()
	if obs != nil {
		m := obs.Metrics()
		return &m
	}
	if res != nil {
		return res.Metrics
	}
	return nil
}

// setResult stores the finished (or honest-partial) result.
func (j *Job) setResult(res *mpmb.Result) {
	j.mu.Lock()
	j.result = res
	j.mu.Unlock()
}

// progress updates the completed-trial watermark after a checkpoint.
func (j *Job) progress(trialsDone int, checkpointed bool) {
	j.mu.Lock()
	if trialsDone > j.trialsDone {
		j.trialsDone = trialsDone
	}
	if checkpointed {
		j.ckptSaved = true
	}
	j.mu.Unlock()
}

// requestCancel marks a client cancellation and fires the runner's
// context (if the runner is live). Returns false if the job is already
// terminal.
func (j *Job) requestCancel() bool {
	j.mu.Lock()
	if j.state.terminal() || j.state == JobSuspended {
		j.mu.Unlock()
		return false
	}
	j.mu.Unlock()
	j.cancelMu.Lock()
	j.cancelled = true
	cancel := j.cancel
	j.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
	return true
}

// requestSuspend marks a drain-driven suspension and fires the context.
func (j *Job) requestSuspend() {
	j.cancelMu.Lock()
	j.suspend = true
	cancel := j.cancel
	j.cancelMu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// interruptKind classifies why the runner's context fired.
func (j *Job) interruptKind() (cancelled, suspend bool) {
	j.cancelMu.Lock()
	defer j.cancelMu.Unlock()
	return j.cancelled, j.suspend
}

// attachCancel publishes the live runner's cancel hook, honouring
// requests that raced ahead of the runner start.
func (j *Job) attachCancel(cancel context.CancelFunc) {
	j.cancelMu.Lock()
	j.cancel = cancel
	fire := j.cancelled || j.suspend
	j.cancelMu.Unlock()
	if fire {
		cancel()
	}
}

// statusDoc is the wire form of a job's status.
type statusDoc struct {
	ID              string             `json:"id"`
	Tenant          string             `json:"tenant"`
	State           JobState           `json:"state"`
	Error           string             `json:"error,omitempty"`
	Spec            JobSpec            `json:"spec"`
	Submitted       time.Time          `json:"submitted"`
	Started         *time.Time         `json:"started,omitempty"`
	Finished        *time.Time         `json:"finished,omitempty"`
	TrialsDone      int                `json:"trials_done"`
	Checkpointed    bool               `json:"checkpointed"`
	Resumed         bool               `json:"resumed,omitempty"`
	ResultAvailable bool               `json:"result_available"`
	Metrics         *telemetry.Metrics `json:"metrics,omitempty"`
}

// status snapshots the job for the API. live metrics come from the
// job's observer when it is running.
func (j *Job) status(m *telemetry.Metrics) statusDoc {
	j.mu.Lock()
	defer j.mu.Unlock()
	doc := statusDoc{
		ID: j.ID, Tenant: j.Tenant, State: j.state, Error: j.errMsg,
		Spec: j.Spec, Submitted: j.Submitted,
		TrialsDone: j.trialsDone, Checkpointed: j.ckptSaved, Resumed: j.resumed,
		ResultAvailable: j.state == JobDone || (j.result != nil && j.state.terminal()),
		Metrics:         m,
	}
	if !j.started.IsZero() {
		t := j.started
		doc.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		doc.Finished = &t
	}
	return doc
}

// resultDoc is the wire form of a finished job's result.
type resultDoc struct {
	ID         string               `json:"id"`
	Method     string               `json:"method"`
	Trials     int                  `json:"trials"`
	PrepTrials int                  `json:"prep_trials,omitempty"`
	Partial    bool                 `json:"partial,omitempty"`
	TrialsDone int                  `json:"trials_done,omitempty"`
	Adaptive   *mpmb.AdaptiveReport `json:"adaptive,omitempty"`
	Metrics    *telemetry.Metrics   `json:"metrics,omitempty"`
	Top        []estimateDoc        `json:"top"`
	// Communities carries the per-community top lists for a
	// per-community query; Top then holds the overall best-of-best.
	Communities []communityDoc `json:"communities,omitempty"`
}

type communityDoc struct {
	Community int           `json:"community"`
	Top       []estimateDoc `json:"top"`
}

type estimateDoc struct {
	U1     uint32  `json:"u1"`
	U2     uint32  `json:"u2"`
	V1     uint32  `json:"v1"`
	V2     uint32  `json:"v2"`
	Weight float64 `json:"weight"`
	P      float64 `json:"p"`
}

// resultDocFrom renders a Result for the wire and for persistence.
func resultDocFrom(id string, spec JobSpec, res *mpmb.Result) resultDoc {
	doc := resultDoc{
		ID: id, Method: res.Method, Trials: res.Trials, PrepTrials: res.PrepTrials,
		Partial: res.Partial, Adaptive: res.Adaptive, Metrics: res.Metrics,
		Top: []estimateDoc{},
	}
	if res.Partial {
		doc.TrialsDone = res.TrialsDone
	}
	for _, e := range res.TopK(spec.TopK) {
		doc.Top = append(doc.Top, estimateDoc{
			U1: e.B.U1, U2: e.B.U2, V1: e.B.V1, V2: e.B.V2,
			Weight: e.Weight, P: e.P,
		})
	}
	for _, cr := range res.Communities {
		cd := communityDoc{Community: cr.Community, Top: []estimateDoc{}}
		for _, e := range cr.Result.TopK(spec.TopK) {
			cd.Top = append(cd.Top, estimateDoc{
				U1: e.B.U1, U2: e.B.U2, V1: e.B.V1, V2: e.B.V2,
				Weight: e.Weight, P: e.P,
			})
		}
		doc.Communities = append(doc.Communities, cd)
	}
	return doc
}

// validate rejects specs the engine would refuse, before admission.
func (s *Server) validateSpec(spec JobSpec) error {
	if _, err := s.resolveGraph(spec.Graph); err != nil {
		return err
	}
	if s.cfg.MaxTrials > 0 && spec.Trials+spec.PrepTrials > s.cfg.MaxTrials {
		return fmt.Errorf("trials %d exceed the per-job cap %d", spec.Trials+spec.PrepTrials, s.cfg.MaxTrials)
	}
	if spec.cost() > s.cfg.TenantTrialBurst {
		return fmt.Errorf("trial cost %.0f exceeds the tenant burst budget %.0f; split the job", spec.cost(), s.cfg.TenantTrialBurst)
	}
	return spec.options(nil, time.Now()).Validate()
}
