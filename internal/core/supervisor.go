package core

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/interval"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// StopReason classifies why a supervised run ended.
type StopReason string

// The supervisor's stop reasons.
const (
	// StopCompleted: the full trial budget ran and every enabled audit
	// passed.
	StopCompleted StopReason = "completed"
	// StopEpsilon: the leader's normal-approximation half-width dropped to
	// SupervisorOptions.Epsilon or below before the trial budget ran out.
	StopEpsilon StopReason = "epsilon"
	// StopDeadline: SupervisorOptions.Deadline expired; the Result is the
	// partial-but-honest prefix completed in time.
	StopDeadline StopReason = "deadline"
	// StopCancelled: the external Interrupt hook fired (context
	// cancellation, signal).
	StopCancelled StopReason = "cancelled"
)

// Transition records one degradation-ladder or escalation event of a
// supervised run: an OLS prep escalation keeps From == To (the method
// survives with a doubled preparing phase), while a fallback moves down
// the ladder (ols → os → mc-vp).
type Transition struct {
	From string `json:"from"`
	To   string `json:"to"`
	// Reason is "escalate-prep" (audit found a maximum butterfly outside
	// C_MB), "max-escalations" (escalation budget exhausted, falling back
	// to OS), or "worker-panic" (a parallel worker died; the method
	// restarts one rung down).
	Reason string `json:"reason"`
	// AtTrial is the sampling-trial prefix completed when the transition
	// was decided (0 when unknown, e.g. after a worker panic).
	AtTrial int `json:"at_trial"`
}

// AdaptiveReport is the supervisor's bookkeeping, attached to
// Result.Adaptive by Supervise.
type AdaptiveReport struct {
	StopReason StopReason `json:"stop_reason"`
	// Epsilon / Z echo the stopping rule's parameters; HalfWidth is the
	// achieved leader half-width at stop time (0 when not applicable:
	// no estimates yet, or an ols-kl run, whose estimates are not
	// per-trial proportions).
	Epsilon   float64 `json:"epsilon,omitempty"`
	Z         float64 `json:"z,omitempty"`
	HalfWidth float64 `json:"half_width,omitempty"`
	// Audits counts the full-OS audit trials interleaved into the OLS
	// sampling phase; Escalations counts how many of them triggered a
	// preparing-phase escalation.
	Audits      int `json:"audits"`
	Escalations int `json:"escalations"`
	// FinalMethod / FinalPrepTrials describe the configuration that
	// produced the Result after any escalations and fallbacks.
	FinalMethod     string       `json:"final_method"`
	FinalPrepTrials int          `json:"final_prep_trials,omitempty"`
	Transitions     []Transition `json:"transitions,omitempty"`
	// PrepSizing records the adaptive prep-sizing pre-pass when the query
	// requested one (Query.AdaptivePrep); nil otherwise. It is attached
	// whether or not the run was otherwise supervised.
	PrepSizing *PrepSizing `json:"prep_sizing,omitempty"`
}

// ErrStalled reports a supervised run whose workers stopped making
// progress for longer than SupervisorOptions.StallTimeout. Match with
// errors.Is; the concrete *StallError carries the quiet duration.
var ErrStalled = errors.New("core: supervised run stalled")

// StallError is the typed error behind ErrStalled. The supervisor cannot
// preempt a stuck goroutine, so after returning this error the stalled
// run's goroutine is abandoned: it leaks until whatever blocked it
// (a user OnTrial hook, a pathological trial) returns. Callers should
// treat the search as failed.
type StallError struct {
	// Method is the method that was running when progress stopped.
	Method string
	// Quiet is how long the run went without polling its interrupt hook;
	// Timeout is the configured budget it exceeded.
	Quiet   time.Duration
	Timeout time.Duration
}

func (e *StallError) Error() string {
	return fmt.Sprintf("core: %s run stalled: no progress for %v (stall timeout %v)", e.Method, e.Quiet, e.Timeout)
}

// Is makes errors.Is(err, ErrStalled) succeed for *StallError.
func (e *StallError) Is(target error) bool { return target == ErrStalled }

// Supervisor defaults.
const (
	// defaultMaxEscalations bounds audit-triggered prep escalations when
	// SupervisorOptions.MaxEscalations is zero.
	defaultMaxEscalations = 2
	// defaultCheckPolls is the segment length (in interrupt polls) between
	// ε-stopping checks when audits do not already segment the run.
	defaultCheckPolls = 512
	// defaultEpsilonZ is the 99% two-sided normal critical value.
	defaultEpsilonZ = 2.5758293035489004
	// auditSeedSalt derives the audit-trial random stream from the run
	// seed. It must differ from the sampling-phase offset (see
	// olsSampling) so audits never reuse a prep or sampling stream.
	auditSeedSalt = 0x5bd1e995c0ffee11
)

// SupervisorOptions configures Supervise.
type SupervisorOptions struct {
	// Method is "mc-vp", "os", "ols" or "ols-kl" (exact runs are bounded
	// and deterministic; they have nothing to supervise).
	Method string
	// Trials / PrepTrials / Seed follow the method's own option struct
	// semantics. Workers > 1 runs os and the OLS sampling phase on
	// &LocalExecutor{Workers: Workers}; 0 and 1 run one worker inline on
	// the caller's goroutine (the only mode the trace hooks support).
	Trials     int
	PrepTrials int
	Seed       uint64
	Workers    int

	// AuditEvery interleaves one full Ordering Sampling "audit" trial
	// after every AuditEvery OLS sampling trials (and one final audit
	// before a supervised OLS run is declared complete). An audit whose
	// maximum butterfly set leaves C_MB escalates: the missed butterflies
	// merge into the candidate tallies, the preparing phase re-runs with a
	// doubled trial target through the resume machinery, and sampling
	// restarts over the wider candidate list. 0 disables audits. OLS
	// methods only.
	AuditEvery int
	// MaxEscalations bounds audit escalations; when one more would be
	// needed the run falls down the degradation ladder to OS instead.
	// 0 means defaultMaxEscalations.
	MaxEscalations int

	// Epsilon > 0 stops the run early once the leader estimate's
	// normal-approximation half-width (interval.NormalHalfWidth at Z)
	// drops to Epsilon or below. Proportion methods only (mc-vp, os,
	// ols); ols-kl estimates are not per-trial proportions.
	Epsilon float64
	// Z is the critical value for the Epsilon rule; 0 means
	// defaultEpsilonZ (99%).
	Z float64
	// Deadline, when non-zero, stops the run at the first interrupt poll
	// at or past it, returning the partial-but-honest prefix.
	Deadline time.Time
	// StallTimeout > 0 arms a watchdog: if the run goes that long without
	// polling its interrupt hook, Supervise returns a *StallError instead
	// of hanging. The stuck goroutine is abandoned (see StallError).
	StallTimeout time.Duration

	// Probe, if non-nil, receives run telemetry from every phase the
	// supervisor drives: the underlying runners' trial flushes, audit
	// outcomes (under the "audit" phase label), and escalation /
	// degradation-ladder transitions as events.
	Probe *telemetry.Probe

	// Now overrides the clock (tests); nil means time.Now.
	Now func() time.Time
	// Interrupt is the external cancellation hook (context, signal),
	// polled alongside the supervisor's own bookkeeping. Must be safe for
	// concurrent use when Workers > 1.
	Interrupt func() bool

	// OS carries Ordering Sampling knobs for the os method and the OLS
	// preparing phase (its Trials/Seed/Interrupt/Resume are overwritten;
	// OnTrial is honored only for one-worker os runs). Audit trials always
	// run the pristine, un-ablated OS configuration — they are the
	// defense, so fault-injection knobs must not reach them.
	OS OSOptions
	// KL / Optimized carry estimator knobs for the OLS sampling phase,
	// with the same overwrite rules as OLSOptions.
	KL        KLOptions
	Optimized OptimizedOptions

	// Prepared supplies an already-listed candidate set (the Searcher's
	// cache). It must have been prepared with PrepDone == PrepTrials and
	// the same Seed/graph; ignored when Resume is set.
	Prepared *Candidates
	// Resume continues a checkpoint written by an earlier supervised (or
	// plain) run. A checkpoint whose PrepTrials exceeds the configured
	// target is adopted as the current escalation level; a checkpoint
	// whose Method sits further down the degradation ladder resumes that
	// method directly. Note that a sampling-phase checkpoint cut AFTER an
	// escalation can only resume in-process (the escalated candidate list
	// depends on audit state the checkpoint format does not carry); a
	// cold resume of such a checkpoint fails with a candidate-count
	// mismatch rather than resuming silently wrong.
	Resume *Checkpoint
}

func (o SupervisorOptions) mu() float64 {
	if o.Method == "ols-kl" {
		return o.KL.Mu
	}
	return 0
}

// Supervise wraps a sampling run with the three robustness mechanisms of
// the adaptive-run design: coverage audits with escalation and a
// degradation ladder (OLS → OS → MC-VP), accuracy-aware stopping
// (Epsilon/Deadline), and a progress watchdog (StallTimeout). The
// returned Result carries the normal method contract plus an
// AdaptiveReport describing what the supervisor did.
func Supervise(g *bigraph.Graph, opt SupervisorOptions) (*Result, error) {
	if err := validateSupervisor(opt); err != nil {
		return nil, err
	}
	now := opt.Now
	if now == nil {
		now = time.Now
	}
	z := opt.Z
	if z <= 0 {
		z = defaultEpsilonZ
	}
	s := &supervisor{
		g:   g,
		opt: opt,
		now: now,
		z:   z,
		rep: &AdaptiveReport{Epsilon: opt.Epsilon},
		gate: &segGate{
			external: opt.Interrupt,
			deadline: opt.Deadline,
			now:      now,
		},
	}
	if opt.Epsilon > 0 {
		s.rep.Z = z
	}
	return s.run()
}

func validateSupervisor(o SupervisorOptions) error {
	olsMethod := o.Method == "ols" || o.Method == "ols-kl"
	switch o.Method {
	case "mc-vp", "os", "ols", "ols-kl":
	default:
		return fmt.Errorf("core: Supervise does not support method %q", o.Method)
	}
	if o.Trials <= 0 {
		return fmt.Errorf("core: Supervise requires Trials > 0, got %d", o.Trials)
	}
	if olsMethod && o.PrepTrials <= 0 {
		return fmt.Errorf("core: supervised %s requires PrepTrials > 0, got %d", o.Method, o.PrepTrials)
	}
	if o.Workers < 0 {
		return fmt.Errorf("core: negative Workers (%d)", o.Workers)
	}
	if o.Workers > 0 && o.Method == "mc-vp" {
		return fmt.Errorf("core: mc-vp does not support parallel execution (Workers=%d)", o.Workers)
	}
	if o.AuditEvery < 0 || o.MaxEscalations < 0 {
		return fmt.Errorf("core: negative audit options (AuditEvery=%d, MaxEscalations=%d)", o.AuditEvery, o.MaxEscalations)
	}
	if o.AuditEvery > 0 && !olsMethod {
		return fmt.Errorf("core: coverage audits only apply to the OLS methods (method %q has no candidate truncation to audit)", o.Method)
	}
	if math.IsNaN(o.Epsilon) || o.Epsilon < 0 {
		return fmt.Errorf("core: Epsilon=%v must be >= 0", o.Epsilon)
	}
	if o.Epsilon > 0 && o.Method == "ols-kl" {
		return fmt.Errorf("core: the Epsilon stopping rule needs per-trial proportions; ols-kl estimates are Karp-Luby transforms (use ols, os or mc-vp)")
	}
	if o.StallTimeout < 0 {
		return fmt.Errorf("core: negative StallTimeout (%v)", o.StallTimeout)
	}
	return nil
}

// supervisor is the per-run state behind Supervise.
type supervisor struct {
	g    *bigraph.Graph
	opt  SupervisorOptions
	now  func() time.Time
	z    float64
	rep  *AdaptiveReport
	gate *segGate

	// Audit state: a dedicated OS index and random stream, lazily built.
	// The stream derives per-audit from (Seed ^ auditSeedSalt, audit
	// index), so audits are deterministic and independent of both the
	// preparing and the sampling streams.
	auditIdx  *osIndex
	auditRoot *randx.RNG
	auditN    int
}

func (s *supervisor) run() (*Result, error) {
	method := s.opt.Method
	if ck := s.opt.Resume; ck != nil && ck.Method != method && ladderBelow(ck.Method, method) {
		// A fallback run's checkpoint resumes the fallback method, not
		// the rung the options still name.
		s.transition(method, ck.Method, "resumed-fallback", ck.Done)
		return s.runCounting(ck.Method, ck)
	}
	switch method {
	case "ols", "ols-kl":
		return s.runOLS()
	default:
		return s.runCounting(method, s.opt.Resume)
	}
}

// ladderBelow reports whether method a sits strictly below b on the
// degradation ladder ols/ols-kl → os → mc-vp.
func ladderBelow(a, b string) bool {
	rank := func(m string) int {
		switch m {
		case "ols", "ols-kl":
			return 2
		case "os":
			return 1
		default:
			return 0
		}
	}
	return rank(a) < rank(b)
}

func (s *supervisor) maxEscalations() int {
	if s.opt.MaxEscalations > 0 {
		return s.opt.MaxEscalations
	}
	return defaultMaxEscalations
}

// segmentPolls is the interrupt-poll budget of one supervised segment: the
// audit cadence when audits are on, the ε-check cadence when only the
// stopping rule needs boundaries, otherwise unlimited (deadline and
// cancellation fire inside the poll hook and need no segmentation).
func (s *supervisor) segmentPolls(audits bool) int64 {
	if audits && s.opt.AuditEvery > 0 {
		return int64(s.opt.AuditEvery)
	}
	if s.opt.Epsilon > 0 {
		return defaultCheckPolls
	}
	return 0
}

func (s *supervisor) transition(from, to, reason string, atTrial int) {
	s.rep.Transitions = append(s.rep.Transitions, Transition{From: from, To: to, Reason: reason, AtTrial: atTrial})
	s.opt.Probe.Emit(telemetry.Event{
		Kind: telemetry.EventEscalation, Trial: atTrial,
		From: from, To: to, Detail: reason,
	})
}

// finish stamps the adaptive report onto the result.
func (s *supervisor) finish(res *Result, reason StopReason) *Result {
	s.rep.StopReason = reason
	s.rep.FinalMethod = res.Method
	s.rep.FinalPrepTrials = res.PrepTrials
	if res.Method != "ols-kl" {
		if hw, ok := s.leaderHalfWidth(res); ok {
			s.rep.HalfWidth = hw
		}
	}
	res.Adaptive = s.rep
	return res
}

// stopFor maps the gate's fired flags to a stop reason, preferring
// cancellation over deadline (both may have fired by the time a segment
// returns).
func (s *supervisor) stopFor() (StopReason, bool) {
	if s.gate.extFired.Load() {
		return StopCancelled, true
	}
	if s.gate.ddlFired.Load() {
		return StopDeadline, true
	}
	return "", false
}

// leaderHalfWidth computes the leader estimate's normal-approximation
// half-width. The proportion methods report P̂ = count/TrialsDone, so the
// leader count is recovered by rounding.
func (s *supervisor) leaderHalfWidth(res *Result) (float64, bool) {
	n := res.TrialsDone
	if n <= 0 || len(res.Estimates) == 0 {
		return 0, false
	}
	x := int64(math.Round(res.Estimates[0].P * float64(n)))
	return interval.NormalHalfWidth(x, n, s.z), true
}

func (s *supervisor) epsilonMet(res *Result) bool {
	if s.opt.Epsilon <= 0 || res.Method == "ols-kl" {
		return false
	}
	hw, ok := s.leaderHalfWidth(res)
	return ok && hw <= s.opt.Epsilon
}

// runCounting supervises the counting methods (os, mc-vp), including
// their role as fallback targets: segments of sampling punctuated by
// ε-checks, with a worker-panic rung down from os to mc-vp.
func (s *supervisor) runCounting(method string, ck *Checkpoint) (*Result, error) {
	for {
		s.gate.newSegment(s.segmentPolls(false))
		res, err := s.countingStep(method, ck)
		if err != nil {
			if method == "os" && errors.Is(err, ErrWorkerPanic) {
				s.transition("os", "mc-vp", "worker-panic", 0)
				method, ck = "mc-vp", nil
				continue
			}
			return nil, err
		}
		if reason, stop := s.stopFor(); stop {
			return s.finish(res, reason), nil
		}
		if s.epsilonMet(res) {
			return s.finish(res, StopEpsilon), nil
		}
		if !res.Partial {
			return s.finish(res, StopCompleted), nil
		}
		ck = res.Checkpoint
	}
}

func (s *supervisor) countingStep(method string, ck *Checkpoint) (*Result, error) {
	return s.withWatchdog(method, func() (*Result, error) {
		switch method {
		case "mc-vp":
			return MCVP(s.g, MCVPOptions{
				Trials:    s.opt.Trials,
				Seed:      s.opt.Seed,
				Interrupt: s.gate.poll,
				Resume:    ck,
				Probe:     s.opt.Probe,
			})
		default: // "os"
			o := s.opt.OS
			o.Trials = s.opt.Trials
			o.Seed = s.opt.Seed
			o.Interrupt = s.gate.poll
			o.Resume = ck
			o.Probe = s.opt.Probe
			if o.Executor = LocalWorkers(s.opt.Workers); o.Executor != nil {
				o.OnTrial = nil // the trace hook needs the inline worker
			}
			return OS(s.g, o)
		}
	})
}

// runOLS supervises the OLS methods: prepare (with escalation resume
// support), then sampling segments punctuated by coverage audits and
// ε-checks, falling down the ladder when the escalation budget runs out
// or a worker panics.
func (s *supervisor) runOLS() (*Result, error) {
	method := s.opt.Method
	prepTarget := s.opt.PrepTrials
	var prepResume []ButterflyCount
	prepStart := 0
	var samplingCk *Checkpoint
	if ck := s.opt.Resume; ck != nil {
		if ck.PrepTrials > prepTarget {
			// A checkpoint cut after an escalation carries the doubled
			// target; adopt it as the current escalation level.
			prepTarget = ck.PrepTrials
		}
		if err := ck.resumeCheck(method, s.opt.Seed, s.opt.Trials, prepTarget, s.opt.mu(), Anchor{}, s.g); err != nil {
			return nil, err
		}
		if ck.Prepare {
			prepResume = ck.Counts
			prepStart = ck.Done
		} else {
			samplingCk = ck
		}
	}
	var cands *Candidates
	if p := s.opt.Prepared; p != nil && s.opt.Resume == nil && p.PrepDone == prepTarget {
		cands = p
	}
	escalations := 0
	for {
		if cands == nil {
			c, interrupted, err := prepareCandidates(s.g, prepTarget, s.opt.Seed, s.prepOS(), prepResume, prepStart)
			if err != nil {
				return nil, err
			}
			if interrupted {
				res := prepPartialResult(method, s.g, s.olsOpts(prepTarget, nil), c)
				reason, _ := s.stopFor()
				if reason == "" {
					reason = StopCancelled
				}
				return s.finish(res, reason), nil
			}
			cands = c
			prepResume, prepStart = nil, 0
		}
		s.gate.newSegment(s.segmentPolls(true))
		res, err := s.olsStep(cands, prepTarget, samplingCk)
		if err != nil {
			if errors.Is(err, ErrWorkerPanic) {
				s.transition(method, "os", "worker-panic", 0)
				return s.runCounting("os", nil)
			}
			return nil, err
		}
		if reason, stop := s.stopFor(); stop {
			return s.finish(res, reason), nil
		}
		if s.opt.AuditEvery > 0 {
			// Audit before trusting the segment: one audit per segment
			// boundary, topped up to the full Trials/AuditEvery quota
			// before a completed run is accepted — so even a run whose
			// sampling finishes instantly (an empty candidate set from a
			// prep phase that saw only empty worlds) pays its whole
			// audit schedule.
			missed := s.audit(cands)
			if len(missed) == 0 && !res.Partial {
				quota := (s.opt.Trials + s.opt.AuditEvery - 1) / s.opt.AuditEvery
				for len(missed) == 0 && s.rep.Audits < quota {
					missed = s.audit(cands)
				}
			}
			if len(missed) > 0 {
				if escalations >= s.maxEscalations() {
					s.transition(method, "os", "max-escalations", res.TrialsDone)
					return s.runCounting("os", nil)
				}
				escalations++
				s.rep.Escalations++
				s.opt.Probe.Add(0, telemetry.CounterEscalations, 1)
				s.transition(method, method, "escalate-prep", res.TrialsDone)
				// Merge the audit's missed butterflies into the prep
				// tallies (at zero hits — honest: prep never saw them)
				// and re-run preparation to the doubled target through
				// the resume machinery. Sampling restarts fresh: the
				// per-candidate counts are indexed by a list that no
				// longer exists.
				prepResume = append(cands.prepSnapshot(), missed...)
				prepStart = cands.PrepDone
				prepTarget *= 2
				cands = nil
				samplingCk = nil
				continue
			}
		}
		if s.epsilonMet(res) {
			return s.finish(res, StopEpsilon), nil
		}
		if !res.Partial {
			return s.finish(res, StopCompleted), nil
		}
		samplingCk = res.Checkpoint
	}
}

// prepOS is the preparing phase's OS configuration: the caller's pruning
// knobs with the supervisor's passive hook (external cancellation and
// deadline only — prep polls must not consume the sampling segment's
// budget).
func (s *supervisor) prepOS() OSOptions {
	o := s.opt.OS
	o.OnTrial = nil
	o.Resume = nil
	o.Interrupt = s.gate.passive
	o.Probe = s.opt.Probe // prepareCandidates rebinds it to the prep phase
	return o
}

func (s *supervisor) olsOpts(prepTarget int, ck *Checkpoint) OLSOptions {
	return OLSOptions{
		PrepTrials:  prepTarget,
		Trials:      s.opt.Trials,
		Seed:        s.opt.Seed,
		UseKarpLuby: s.opt.Method == "ols-kl",
		KL:          s.opt.KL,
		Optimized:   s.opt.Optimized,
		OS:          s.opt.OS,
		Interrupt:   s.gate.poll,
		Resume:      ck,
		Probe:       s.opt.Probe,
		Executor:    LocalWorkers(s.opt.Workers),
	}
}

func (s *supervisor) olsStep(cands *Candidates, prepTarget int, ck *Checkpoint) (*Result, error) {
	opt := s.olsOpts(prepTarget, ck)
	return s.withWatchdog(s.opt.Method, func() (*Result, error) {
		return OLSSamplingPhase(cands, opt)
	})
}

// audit runs one full Ordering Sampling trial on a freshly sampled world
// and returns the maximum butterflies it found that are missing from
// C_MB (as zero-hit prep tallies, ready to merge). Audits always use the
// pristine OS configuration — no ablation or fault-injection knobs.
func (s *supervisor) audit(cands *Candidates) []ButterflyCount {
	s.rep.Audits++
	probe := s.opt.Probe.WithPhase(telemetry.PhaseAudit)
	probe.Add(0, telemetry.CounterAudits, 1)
	if s.auditIdx == nil {
		s.auditIdx = newOSIndex(s.g, OSOptions{})
		s.auditRoot = randx.New(s.opt.Seed ^ auditSeedSalt)
	}
	s.auditN++
	rng := s.auditRoot.Derive(uint64(s.auditN))
	var sMB butterfly.MaxSet
	s.auditIdx.runTrial(&sMB, func(id bigraph.EdgeID) bool {
		return rng.Bernoulli(s.g.Edge(id).P)
	})
	if sMB.Empty() {
		return nil
	}
	in := make(map[butterfly.Butterfly]bool, cands.Len())
	for _, c := range cands.List {
		in[c.B] = true
	}
	var missed []ButterflyCount
	for _, b := range sMB.Set {
		if !in[b] {
			missed = append(missed, ButterflyCount{B: b, Count: 0, Weight: sMB.W})
			probe.Add(0, telemetry.CounterAuditMisses, 1)
			probe.Emit(telemetry.Event{
				Kind: telemetry.EventAuditMiss, Trial: s.auditN,
				B: probeButterfly(b), Weight: sMB.W,
			})
		}
	}
	return missed
}

// withWatchdog runs fn, monitoring the gate's last-poll timestamp when
// StallTimeout is armed. On a stall the run goroutine is abandoned (it
// cannot be preempted) and a *StallError is returned.
func (s *supervisor) withWatchdog(method string, fn func() (*Result, error)) (*Result, error) {
	if s.opt.StallTimeout <= 0 {
		return fn()
	}
	type outcome struct {
		res *Result
		err error
	}
	s.gate.touch() // the call itself counts as progress
	ch := make(chan outcome, 1)
	go func() {
		res, err := fn()
		ch <- outcome{res, err}
	}()
	period := s.opt.StallTimeout / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	ticker := time.NewTicker(period)
	defer ticker.Stop()
	for {
		select {
		case o := <-ch:
			return o.res, o.err
		case <-ticker.C:
			quiet := time.Duration(s.now().UnixNano() - s.gate.lastPoll.Load())
			if quiet > s.opt.StallTimeout {
				return nil, &StallError{Method: method, Quiet: quiet, Timeout: s.opt.StallTimeout}
			}
		}
	}
}

// segGate is the supervisor's interrupt hook: it multiplexes external
// cancellation, the deadline, and a per-segment poll budget through the
// runners' existing Interrupt seam, so the unmodified partial-Result +
// Checkpoint machinery does the segmenting. All state is atomic — a
// multi-worker run polls from every worker.
type segGate struct {
	external func() bool
	deadline time.Time
	now      func() time.Time

	polls    atomic.Int64
	limit    atomic.Int64
	lastPoll atomic.Int64 // UnixNano of the most recent poll (watchdog food)
	extFired atomic.Bool
	ddlFired atomic.Bool
}

// poll is the full hook handed to the runners' Interrupt seam.
func (g *segGate) poll() bool {
	if g.passive() {
		return true
	}
	if g.polls.Add(1) > g.limit.Load() {
		// The cut poll does not consume budget, so segment boundaries
		// do not drift: N segments of K polls execute exactly N·K
		// counted polls.
		g.polls.Add(-1)
		return true
	}
	return false
}

// passive checks external cancellation and the deadline without touching
// the segment budget — the preparing phase's hook.
func (g *segGate) passive() bool {
	g.touch()
	if g.external != nil && g.external() {
		g.extFired.Store(true)
		return true
	}
	if !g.deadline.IsZero() && !g.now().Before(g.deadline) {
		g.ddlFired.Store(true)
		return true
	}
	return false
}

func (g *segGate) touch() { g.lastPoll.Store(g.now().UnixNano()) }

// newSegment grants the next segment's poll budget; 0 or negative means
// unlimited.
func (g *segGate) newSegment(budget int64) {
	if budget <= 0 {
		g.limit.Store(math.MaxInt64)
		return
	}
	g.limit.Store(g.polls.Load() + budget)
}
