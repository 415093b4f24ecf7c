package core

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// KLOptions configures the Karp-Luby probability estimator (Algorithm 4),
// the alternative OLS sampling phase the paper compares against.
type KLOptions struct {
	// BaseTrials is the reference trial number. With Mu == 0 every
	// candidate runs exactly BaseTrials trials; with Mu > 0 the
	// per-candidate count is derived from BaseTrials via Equation 8 (see
	// Mu). Must be > 0.
	BaseTrials int
	// Mu, when positive, enables the paper's dynamic trial allocation
	// (Section VIII-B, Table IV): candidate B_i runs
	// ceil(KLOpRatio(Pr[E(B_i)], S_i, Mu) · BaseTrials) trials, the count
	// that matches the optimized estimator's ε-δ guarantee at target
	// probability Mu per Lemma VI.4. The true P(B_i) is unknown a priori,
	// so — like the paper — a global target (default experiments use
	// 0.05 or 0.1) stands in for μ.
	Mu float64
	// MaxTrials caps the per-candidate dynamic count (the ratio diverges
	// as Pr[E(B_i)]/μ grows). 0 means 50× BaseTrials.
	MaxTrials int
	// Seed makes the run reproducible.
	Seed uint64
	// TrialsUsed, if non-nil, receives the per-candidate trial counts
	// actually executed (indexed like the candidate list).
	TrialsUsed *[]int
	// OnCandidateTrial, if non-nil, is invoked after every trial of every
	// candidate with the candidate index, the 1-based trial index, and
	// the running estimate P̂(B_i) as of that trial. The convergence
	// experiment (Fig. 11) hooks here. Candidates resolved without
	// sampling (L(i) = 0 or S_i = 0) fire once with trial 0. It needs a
	// nil Executor: candidates are then priced in order on the caller's
	// goroutine.
	OnCandidateTrial func(cand, trial int, runningP float64)
	// OnlyCandidate, when non-nil, restricts estimation to the single
	// candidate with that index; every other probability is returned as
	// 0. Convergence traces of one butterfly use this to avoid pricing
	// thousands of irrelevant candidates. In-process only: it needs a nil
	// Executor or a *LocalExecutor.
	OnlyCandidate *int
	// Interrupt, if non-nil, is polled between candidates; when it returns
	// true the run stops, leaving later candidates unpriced (State reports
	// how many were finished). Estimation is candidate-granular, so the
	// priced prefix is exact. A multi-worker executor polls the hook
	// concurrently from every worker; it must be safe for concurrent use
	// there.
	Interrupt func() bool
	// State, if non-nil, receives the run's completion state — partial
	// flag, priced-candidate count, and per-candidate data for
	// checkpointing.
	State *EstimatorState
	// ResumeProbs / ResumeTrials / ResumeDone restore the first ResumeDone
	// candidates' estimates from an earlier cancelled run; pricing
	// continues at candidate ResumeDone and finishes bit-identically to an
	// uninterrupted run (per-candidate streams derive from (Seed,
	// candidate index)). Incompatible with OnlyCandidate.
	ResumeProbs  []float64
	ResumeTrials []int64
	ResumeDone   int
	// Probe, if non-nil, receives run telemetry: the per-candidate trial
	// counts actually executed, flushed once per priced candidate. Nil
	// costs one predictable branch per candidate.
	Probe *telemetry.Probe
	// Executor prices the candidates: nil runs one worker inline on the
	// caller's goroutine, &LocalExecutor{Workers: N} runs N in-process
	// workers, and any other TrialExecutor runs them where it likes.
	// Spec carries the run-level identity remote executors need.
	Executor TrialExecutor
	Spec     ExecSpec
}

// klScratch is the reusable lazy edge-sampling state shared by all trials
// of all candidates priced by one goroutine: stamp/val lazy sampling
// slices, the id-indexed Bernoulli threshold table (shared read-only
// across goroutines), and an in-place derived per-candidate stream.
type klScratch struct {
	stamp  []int32
	val    []bool
	cur    int32
	thresh []uint64
	rng    randx.RNG
}

func newKLScratch(numE int, thresh []uint64) *klScratch {
	return &klScratch{stamp: make([]int32, numE), val: make([]bool, numE), thresh: thresh}
}

// EstimateKarpLuby runs Algorithm 4 over a weight-sorted candidate set and
// returns P̂(B_i) for every candidate.
//
// For candidate B_i the quantity to estimate is the probability that no
// strictly heavier candidate B_j (j < L(i)) exists once B_i's own edges
// are conditioned present:
//
//	P(B_i) = Pr[E(B_i)] · (1 − Pr[∪_{j<L(i)} E(B_j\B_i)])
//
// The union probability is estimated with Karp-Luby rejection sampling:
// pick j proportional to Pr[E(B_j\B_i)] (alias table), force B_j\B_i
// present, Bernoulli-sample the other relevant edges, and count the trial
// iff no smaller-index k has B_k\B_i fully present — so every world in the
// union is credited to exactly one j. The estimator is unbiased for the
// union probability; the returned P̂ is clamped into [0, Pr[E(B_i)]]
// (sampling noise can otherwise push it slightly outside).
//
// Note the estimate treats C_MB as the complete competitor set; butterflies
// missing from the candidate set bias P̂ upward by at most Σ P(B_missing)
// (Lemma VI.5).
//
// Every candidate's estimation is independent (its random stream derives
// from (Seed, candidate index)), so the candidates are the units
// opt.Executor distributes (LocalExecutor.runKarpLuby prices them), and
// per-candidate results are bit-identical at every worker count.
// Cancellation stops pricing at a candidate-prefix boundary and resume
// continues from it.
func EstimateKarpLuby(c *Candidates, opt KLOptions) ([]float64, error) {
	if err := validateKL(opt); err != nil {
		return nil, err
	}
	local := ""
	if opt.OnlyCandidate != nil {
		local = "OnlyCandidate"
	}
	if err := checkExecutor(opt.Executor, opt.OnCandidateTrial != nil, local); err != nil {
		return nil, err
	}
	n := len(c.List)
	probs := make([]float64, n)
	trialsUsed := make([]int, n)
	start := opt.ResumeDone // the already-priced prefix
	if start != 0 || opt.ResumeProbs != nil {
		if start < 0 || start > n {
			return nil, fmt.Errorf("core: Karp-Luby resume at candidate %d outside [0,%d]", start, n)
		}
		if len(opt.ResumeProbs) != n || len(opt.ResumeTrials) != n {
			return nil, fmt.Errorf("core: Karp-Luby resume has %d/%d entries, want %d", len(opt.ResumeProbs), len(opt.ResumeTrials), n)
		}
		for i := 0; i < start; i++ {
			probs[i] = opt.ResumeProbs[i]
			trialsUsed[i] = int(opt.ResumeTrials[i])
		}
	}
	r, err := runExecutor(opt.Executor).ExecuteTrials(&ExecJob{
		Kind:  ExecKarpLuby,
		Graph: c.G,
		Cands: c,
		OS:    OSOptions{Anchor: c.Anchor},
		Seed:  opt.Seed,
		Units: n,
		Start: start,
		KL: KLOptions{
			BaseTrials:       opt.BaseTrials,
			Mu:               opt.Mu,
			MaxTrials:        opt.MaxTrials,
			OnCandidateTrial: opt.OnCandidateTrial,
			OnlyCandidate:    opt.OnlyCandidate,
		},
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Spec:      opt.Spec,
	})
	if err != nil {
		return nil, err
	}
	if r.Done > start {
		copy(probs[start:r.Done], r.CandProbs[start:r.Done])
		copy(trialsUsed[start:r.Done], r.CandTrials[start:r.Done])
	}
	if opt.TrialsUsed != nil {
		*opt.TrialsUsed = trialsUsed
	}
	if opt.State != nil {
		*opt.State = EstimatorState{Partial: r.Done < n, Done: r.Done, Probs: probs, Trials: trialsUsed}
	}
	return probs, nil
}

// validateKL checks the Karp-Luby option combinations.
func validateKL(opt KLOptions) error {
	if opt.BaseTrials <= 0 {
		return fmt.Errorf("core: Karp-Luby estimator requires BaseTrials > 0, got %d", opt.BaseTrials)
	}
	if opt.Mu < 0 || opt.Mu > 1 {
		return fmt.Errorf("core: Karp-Luby Mu=%v outside [0,1]", opt.Mu)
	}
	if opt.OnlyCandidate != nil && (opt.ResumeDone != 0 || opt.ResumeProbs != nil) {
		return fmt.Errorf("core: Karp-Luby resume is incompatible with OnlyCandidate")
	}
	return nil
}

// klPrice prices one candidate (lines 3–10 of Algorithm 4). Its random
// stream derives from (root, candidate index) only, so any subset of
// candidates can be priced in any order — or on any goroutine — with
// bit-identical results.
func klPrice(c *Candidates, i int, opt KLOptions, root *randx.RNG, scratch *klScratch) (prob float64, nTrials int) {
	maxTrials := opt.MaxTrials
	if maxTrials <= 0 {
		maxTrials = 50 * opt.BaseTrials
	}
	g := c.G
	cand := &c.List[i]
	li := c.LargerCount(i) // line 3: L(i)
	if li == 0 {
		// No heavier candidate: B_i is maximum whenever it exists.
		if opt.OnCandidateTrial != nil {
			opt.OnCandidateTrial(i, 0, cand.ExistProb)
		}
		return cand.ExistProb, 0
	}
	// Per-competitor diff edge sets and probabilities (line 4).
	diffs := make([][]bigraph.EdgeID, li)
	diffProbs := make([]float64, li)
	sI := 0.0
	for j := 0; j < li; j++ {
		diffs[j] = c.DiffEdges(j, i)
		diffProbs[j] = 1.0
		for _, id := range diffs[j] {
			diffProbs[j] *= g.Edge(id).P
		}
		sI += diffProbs[j]
	}
	if sI == 0 {
		// Every competitor has an impossible diff set; the union is
		// empty and B_i is maximum exactly when it exists.
		if opt.OnCandidateTrial != nil {
			opt.OnCandidateTrial(i, 0, cand.ExistProb)
		}
		return cand.ExistProb, 0
	}

	nTrials = opt.BaseTrials
	if opt.Mu > 0 {
		ratio := KLOpRatio(cand.ExistProb, sI, opt.Mu)
		nTrials = int(ratio*float64(opt.BaseTrials)) + 1
		if nTrials > maxTrials {
			nTrials = maxTrials
		}
	}

	stamp, val := scratch.stamp, scratch.val
	alias := randx.NewAlias(diffProbs)
	root.DeriveInto(uint64(i)+1, &scratch.rng)
	rng := &scratch.rng
	cnt := 0
	for t := 0; t < nTrials; t++ {
		scratch.cur++
		cur := scratch.cur
		j := alias.Sample(rng) // line 6
		// Line 7: sample a world with B_j\B_i forced present.
		for _, id := range diffs[j] {
			stamp[id] = cur
			val[id] = true
		}
		// Line 8: reject if any smaller-index competitor also exists.
		minimal := true
		for k := 0; k < j && minimal; k++ {
			allPresent := true
			for _, id := range diffs[k] {
				if stamp[id] != cur {
					stamp[id] = cur
					val[id] = rng.BernoulliThresholded(scratch.thresh[id])
				}
				if !val[id] {
					allPresent = false
					break
				}
			}
			if allPresent {
				minimal = false
			}
		}
		if minimal {
			cnt++ // line 9
		}
		if opt.OnCandidateTrial != nil {
			running := (1 - float64(cnt)/float64(t+1)*sI) * cand.ExistProb
			if running < 0 {
				running = 0
			}
			opt.OnCandidateTrial(i, t+1, running)
		}
	}
	// Line 10.
	p := (1 - float64(cnt)/float64(nTrials)*sI) * cand.ExistProb
	if p < 0 {
		p = 0
	}
	if p > cand.ExistProb {
		p = cand.ExistProb
	}
	return p, nTrials
}
