package core

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// OLSOptions configures Ordering-Listing Sampling (Algorithm 3).
type OLSOptions struct {
	// PrepTrials is N_os for the preparing phase (paper default: 100).
	PrepTrials int
	// Trials is the sampling-phase trial number: N_op for the optimized
	// estimator, or the BaseTrials reference for Karp-Luby.
	Trials int
	// Seed makes the run reproducible; the preparing and sampling phases
	// derive independent streams from it.
	Seed uint64
	// UseKarpLuby selects Algorithm 4 for the sampling phase instead of
	// the paper's optimized Algorithm 5, i.e. the OLS-KL configuration.
	UseKarpLuby bool
	// KL carries Karp-Luby-specific knobs. BaseTrials, Seed, Interrupt and
	// the resume/state plumbing are overwritten from this struct's fields.
	KL KLOptions
	// Optimized carries optimized-estimator knobs. Trials, Seed, Interrupt
	// and the resume/state plumbing are overwritten likewise.
	Optimized OptimizedOptions
	// OS configures the preparing phase's Ordering Sampling pruning
	// behaviour and, through OS.Anchor, restricts the run to an anchor
	// (its Trials, Seed, OnTrial and Interrupt fields are ignored;
	// cancellation uses the top-level Interrupt).
	OS OSOptions
	// Interrupt, if non-nil, is polled between preparing trials and inside
	// the sampling phase; when it returns true the run stops and returns a
	// partial Result with a resumable Checkpoint. Cancellation during the
	// preparing phase yields a prepare-phase checkpoint and no estimates
	// yet; during the sampling phase, estimates over the completed prefix.
	// Parallel runners poll the hook concurrently from every worker; it
	// must be safe for concurrent use there.
	Interrupt func() bool
	// Resume continues a cancelled run from its checkpoint. The options
	// must match the checkpointed run (method, seed, trial targets, Mu,
	// graph); the finished Result is bit-identical to an uninterrupted
	// run. Note the checkpoint does not record ablation knobs (the OS
	// pruning flags, KL.MaxTrials): resume them with the same values.
	Resume *Checkpoint
	// Probe, if non-nil, receives run telemetry from both phases: the
	// preparing phase flushes under the "prep" phase label (with candidate
	// promotions), the sampling phase under "sample". Nil is free.
	Probe *telemetry.Probe
	// Executor, if non-nil, runs the SAMPLING phase through an explicit
	// TrialExecutor instead of the in-process worker pool (the preparing
	// phase always runs locally: it is short, and its candidate set is
	// what remote workers rebuild deterministically from the seed).
	Executor TrialExecutor
}

// DefaultOLSOptions mirrors the paper's experimental defaults (Section
// VIII-B, Table IV): 100 preparing trials and 2×10⁴ sampling trials,
// matching μ=0.05, ε=δ=0.1 under Theorem IV.1.
func DefaultOLSOptions() OLSOptions {
	return OLSOptions{PrepTrials: 100, Trials: 20000}
}

func (o OLSOptions) method() string {
	if o.UseKarpLuby {
		return "ols-kl"
	}
	return "ols"
}

func (o OLSOptions) mu() float64 {
	if o.UseKarpLuby {
		return o.KL.Mu
	}
	return 0
}

// OLS is Ordering-Listing Sampling (Section VI, Algorithm 3). The
// preparing phase (lines 2–4) runs Ordering Sampling for PrepTrials
// rounds, unioning each round's maximum butterfly set into the candidate
// set C_MB; the sampling phase (line 5) then estimates P(B) for the
// candidates only — with the optimized shared-trial estimator (Algorithm
// 5) or, when UseKarpLuby is set, the Karp-Luby estimator (Algorithm 4).
//
// The returned Result contains an estimate for every candidate (zeros
// included) and reports both phases' trial counts. A graph that produced
// no candidate at all (no butterfly observed in any preparing trial)
// yields an empty Result rather than an error.
func OLS(g *bigraph.Graph, opt OLSOptions) (*Result, error) {
	return olsRun(g, opt, 0)
}

// OLSParallel is OLS with the sampling phase distributed over workers
// goroutines (0 means GOMAXPROCS); the short preparing phase stays
// sequential. Results are bit-identical to OLS with the same options.
func OLSParallel(g *bigraph.Graph, opt OLSOptions, workers int) (*Result, error) {
	if workers <= 0 {
		workers = parDefaultWorkers()
	}
	return olsRun(g, opt, workers)
}

// olsRun executes both OLS phases; workers 0 means a fully sequential
// sampling phase.
func olsRun(g *bigraph.Graph, opt OLSOptions, workers int) (*Result, error) {
	cands, part, err := PrepareOLS(g, opt)
	if cands == nil {
		return part, err
	}
	samplingResume := opt.Resume
	if samplingResume != nil && samplingResume.Prepare {
		samplingResume = nil // the prepare checkpoint is consumed; sampling starts fresh
	}
	return olsSampling(cands, opt, workers, samplingResume)
}

// PrepareOLS runs the preparing phase of OLS on its own, so a caller can
// keep the candidate set between runs: it validates opt.Resume against
// the run and continues a prepare-phase checkpoint. It returns the
// candidates of a completed phase, or, when opt.Interrupt cuts the phase
// short, no candidates and the partial Result OLS would return. An
// anchored run (opt.OS.Anchor) prepares anchored candidates.
func PrepareOLS(g *bigraph.Graph, opt OLSOptions) (*Candidates, *Result, error) {
	method := opt.method()
	var resumeCounts []ButterflyCount
	start := 0
	if ck := opt.Resume; ck != nil {
		if err := ck.resumeCheck(method, opt.Seed, opt.Trials, opt.PrepTrials, opt.mu(), opt.OS.Anchor, g); err != nil {
			return nil, nil, err
		}
		if ck.Prepare {
			resumeCounts, start = ck.Counts, ck.Done
		}
	}
	prepOpt := opt.OS
	prepOpt.Interrupt = opt.Interrupt
	prepOpt.Probe = opt.Probe // prepareCandidates rebinds it to the prep phase
	cands, interrupted, err := prepareCandidates(g, opt.PrepTrials, opt.Seed, prepOpt, resumeCounts, start)
	if err != nil {
		return nil, nil, err
	}
	if interrupted {
		return nil, prepPartialResult(method, g, opt, cands), nil
	}
	return cands, nil, nil
}

// prepPartialResult wraps a cancelled preparing phase: no estimates yet,
// just the resumable hit tallies.
func prepPartialResult(method string, g *bigraph.Graph, opt OLSOptions, cands *Candidates) *Result {
	return &Result{
		Method:     method,
		Trials:     opt.Trials,
		PrepTrials: opt.PrepTrials,
		Partial:    true,
		TrialsDone: 0,
		Checkpoint: &Checkpoint{
			Method:     method,
			Seed:       opt.Seed,
			Trials:     opt.Trials,
			PrepTrials: opt.PrepTrials,
			Mu:         opt.mu(),
			GraphCRC:   g.Checksum(),
			Anchor:     cands.Anchor,
			Prepare:    true,
			Done:       cands.PrepDone,
			Counts:     cands.prepSnapshot(),
		},
	}
}

// OLSSamplingPhase runs only the sampling phase of Algorithm 3 over an
// already-prepared candidate set. The benchmark harness uses this to time
// the two phases separately (Fig. 8) and to sweep trial counts without
// re-listing candidates; the Searcher uses it to reuse cached candidates.
// opt.Resume may be a checkpoint from either phase: a prepare-phase
// checkpoint is consumed — cands is the completed phase it was cut from —
// and sampling starts fresh.
func OLSSamplingPhase(cands *Candidates, opt OLSOptions) (*Result, error) {
	return OLSSamplingPhaseParallel(cands, opt, 0)
}

// OLSSamplingPhaseParallel is OLSSamplingPhase with the estimator trials
// (or, for Karp-Luby, candidates) distributed over workers goroutines
// (0 means sequential). Results are bit-identical to the sequential phase.
func OLSSamplingPhaseParallel(cands *Candidates, opt OLSOptions, workers int) (*Result, error) {
	resume := opt.Resume
	if resume != nil {
		if err := resume.resumeCheck(opt.method(), opt.Seed, opt.Trials, opt.PrepTrials, opt.mu(), cands.Anchor, cands.G); err != nil {
			return nil, err
		}
		if resume.Prepare {
			resume = nil
		}
	}
	return olsSampling(cands, opt, workers, resume)
}

// olsSampling prices the candidates and assembles the Result, threading
// cancellation, resume state, and partial-result bookkeeping through the
// selected estimator.
func olsSampling(cands *Candidates, opt OLSOptions, workers int, resume *Checkpoint) (*Result, error) {
	method := opt.method()
	g := cands.G
	if cands.Len() == 0 {
		return &Result{Method: method, Trials: opt.Trials, TrialsDone: opt.Trials, PrepTrials: opt.PrepTrials}, nil
	}
	// The sampling phase must not share a random stream with the
	// preparing phase; offset the seed deterministically.
	sampleSeed := opt.Seed ^ 0xa5a5a5a5deadbeef
	// The run-level identity an explicit executor may need to rebuild the
	// candidate set remotely: the RUN seed (the phase seed is derived from
	// it) plus the trial targets and Mu the checkpoint layer validates.
	spec := ExecSpec{Method: method, Seed: opt.Seed, Trials: opt.Trials, PrepTrials: opt.PrepTrials, Mu: opt.mu()}
	var st EstimatorState
	var probs []float64
	var err error
	if opt.UseKarpLuby {
		kl := opt.KL
		kl.BaseTrials = opt.Trials
		kl.Seed = sampleSeed
		kl.Interrupt = opt.Interrupt
		kl.State = &st
		kl.Probe = opt.Probe
		kl.Executor = opt.Executor
		kl.Spec = spec
		if resume != nil {
			if len(resume.CandProbs) != cands.Len() {
				return nil, fmt.Errorf("core: checkpoint has %d candidates, preparing phase produced %d (options mismatch?)", len(resume.CandProbs), cands.Len())
			}
			kl.ResumeProbs = resume.CandProbs
			kl.ResumeTrials = resume.CandTrials
			kl.ResumeDone = resume.Done
		}
		if workers > 1 || opt.Executor != nil {
			probs, err = EstimateKarpLubyParallel(cands, kl, workers)
		} else {
			probs, err = EstimateKarpLuby(cands, kl)
		}
	} else {
		op := opt.Optimized
		op.Trials = opt.Trials
		op.Seed = sampleSeed
		op.Interrupt = opt.Interrupt
		op.State = &st
		op.Probe = opt.Probe
		op.Executor = opt.Executor
		op.Spec = spec
		if resume != nil {
			if len(resume.CandCounts) != cands.Len() {
				return nil, fmt.Errorf("core: checkpoint has %d candidates, preparing phase produced %d (options mismatch?)", len(resume.CandCounts), cands.Len())
			}
			op.ResumeCounts = resume.CandCounts
			op.ResumeDone = resume.Done
		}
		if workers > 1 || opt.Executor != nil {
			probs, err = EstimateOptimizedParallel(cands, op, workers)
		} else {
			probs, err = EstimateOptimized(cands, op)
		}
	}
	if err != nil {
		return nil, err
	}
	res := cands.result(method, probs, opt.Trials, opt.PrepTrials)
	res.TrialsDone = opt.Trials
	if st.Partial {
		res.Partial = true
		res.TrialsDone = st.Done
		ck := &Checkpoint{
			Method:     method,
			Seed:       opt.Seed,
			Trials:     opt.Trials,
			PrepTrials: opt.PrepTrials,
			Mu:         opt.mu(),
			GraphCRC:   g.Checksum(),
			Anchor:     cands.Anchor,
			Done:       st.Done,
		}
		if opt.UseKarpLuby {
			ck.CandProbs = st.Probs
			ck.CandTrials = make([]int64, len(st.Trials))
			for i, t := range st.Trials {
				ck.CandTrials[i] = int64(t)
			}
		} else {
			ck.CandCounts = st.Counts
		}
		res.Checkpoint = ck
	}
	probeFinish(opt.Probe, res)
	return res, nil
}
