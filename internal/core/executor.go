package core

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// TrialExecutor is the seam between a runner's bookkeeping (validation,
// resume, partial results, checkpoints) and the machinery that actually
// executes its independent trial units: every OS, optimized-estimator and
// Karp-Luby run goes through one. The runners hand an
// executor a declarative ExecJob — "run units Start+1..Units of this
// kind" — and fold the returned additive payload into their resumed
// state.
//
// The contract every implementation must honour, because the runners'
// bit-identity guarantee rests on it:
//
//   - Prefix. The executed units are exactly Start+1..Done for the
//     returned Done (Done < Units only when job.Interrupt fired). No
//     unit is skipped, none is double-counted.
//   - Derivation. Unit i's random stream is derived from (job.Seed, i)
//     — randx.New(job.Seed).DeriveInto(i) — so WHERE and in WHAT ORDER
//     units run cannot change any result bit.
//   - Additivity. The payload is a sum (or disjoint write) over the
//     executed units; merging per-range payloads in prefix order equals
//     running the whole range in one place.
//
// LocalExecutor runs the units in process (a nil Executor option means
// its one-worker form); internal/dist provides the coordinator-backed
// distributed executor.
type TrialExecutor interface {
	// ExecuteTrials runs job's units Start+1..Units and returns the
	// completed prefix with its payload. An error means no usable
	// payload (e.g. a worker panic abandoned a chunk mid-flight).
	ExecuteTrials(job *ExecJob) (*ExecResult, error)
}

// ExecKind selects which trial body an executor runs.
type ExecKind uint8

const (
	// ExecOS runs Ordering Sampling world trials (Algorithm 2); the
	// payload is the per-butterfly maximum tally.
	ExecOS ExecKind = iota + 1
	// ExecOptimized runs shared sampling trials of the optimized
	// estimator (Algorithm 5); the payload is the per-candidate hit
	// count vector.
	ExecOptimized
	// ExecKarpLuby prices candidates with the Karp-Luby estimator
	// (Algorithm 4); the unit axis is the candidate index and the
	// payload is the per-candidate estimate + executed-trial pair.
	ExecKarpLuby
)

func (k ExecKind) String() string {
	switch k {
	case ExecOS:
		return "os"
	case ExecOptimized:
		return "optimized"
	case ExecKarpLuby:
		return "karp-luby"
	}
	return fmt.Sprintf("ExecKind(%d)", uint8(k))
}

// ExecSpec is the run-level identity of the job, carried for executors
// that ship work to other processes: everything a remote worker needs to
// rebuild the job state it cannot receive by pointer (the candidate set
// is re-derived from Seed + PrepTrials, the sampling phase's seed offset
// from Method). Local execution ignores it.
type ExecSpec struct {
	// Method is the run's method ("os", "ols", "ols-kl"). Empty means
	// the job was built by a core-level caller without run context;
	// distributed executors reject it.
	Method string
	// Seed is the RUN seed (ExecJob.Seed is the PHASE seed — for the
	// OLS sampling phase they differ by the deterministic offset).
	Seed uint64
	// Trials / PrepTrials / Mu mirror the run targets, for remote-side
	// rebuild validation and checkpoint compatibility.
	Trials     int
	PrepTrials int
	Mu         float64
}

// ExecJob is one executable range request. Fields are read-only to the
// executor; Graph and Cands are shared, immutable structures.
type ExecJob struct {
	// Kind picks the trial body; it decides which payload fields of the
	// ExecResult are populated.
	Kind ExecKind
	// Graph is the uncertain network the units sample.
	Graph *bigraph.Graph
	// Cands is the weight-sorted candidate set (ExecOptimized and
	// ExecKarpLuby only; nil for ExecOS).
	Cands *Candidates
	// Seed is the phase seed unit streams derive from.
	Seed uint64
	// Units is the total unit count of the run; Start the completed
	// prefix. The executor runs units Start+1..Units.
	Units int
	Start int
	// OS carries the Ordering Sampling kernel knobs for ExecOS (and the
	// preparing-phase knobs a remote worker must rebuild candidates
	// with): the pruning/ablation flags and the Anchor. Trial counts and
	// seeds travel in the fields above.
	OS OSOptions
	// Optimized carries the ExecOptimized ablations (EagerSampling,
	// DisableEarlyBreak). In-process only: a remote worker cannot
	// receive them, so the runners send them to LocalExecutor alone.
	Optimized OptimizedOptions
	// KL carries the Karp-Luby sizing knobs for ExecKarpLuby (BaseTrials,
	// Mu, MaxTrials) and the in-process-only OnlyCandidate restriction.
	// The trace hooks in OS, Optimized and KL are set only for the inline
	// one-worker run.
	KL KLOptions

	// Interrupt, if non-nil, is polled during execution; when it returns
	// true the executor stops at a unit boundary and returns the
	// completed prefix. Must be safe for concurrent use.
	Interrupt func() bool
	// Probe receives the job's telemetry (nil-safe). Executors flush
	// exact counter deltas for completed units only, so the terminal
	// counters are a function of the done-prefix — identical across
	// local and distributed execution.
	Probe *telemetry.Probe
	// Spec is the run-level identity for remote execution (see
	// ExecSpec).
	Spec ExecSpec

	// acc and counts are an in-process runner's resumed state (ExecOS and
	// ExecOptimized): LocalExecutor's first worker adds its trials to them
	// in place, so a one-worker run's running leader covers the resumed
	// prefix too.
	acc    *probAccumulator
	counts []int64
}

// ExecResult is the additive payload of an executed range. Exactly one
// payload group is populated, matching the job's Kind; all are
// checkpoint-shaped, so a prefix payload converts directly into the
// runners' resume state.
type ExecResult struct {
	// Done is the completed prefix: units Start+1..Done were executed.
	Done int
	// Counts is the ExecOS payload: per-butterfly maximum tallies over
	// the executed units (order irrelevant; counts are additive).
	Counts []ButterflyCount
	// CandCounts is the ExecOptimized payload: a full-width
	// per-candidate hit vector summed over the executed units (for
	// LocalExecutor, added in place to the job's counts when it carried
	// them; see foldCandCounts).
	CandCounts []int64
	// CandProbs / CandTrials are the ExecKarpLuby payload: full-width
	// vectors with entries Start..Done-1 filled (per-candidate writes
	// are disjoint, so ranges concatenate exactly).
	CandProbs  []float64
	CandTrials []int

	// acc is the in-process fast path for ExecOS: LocalExecutor hands
	// the merged worker accumulator over directly (the job's own acc,
	// when it carried one, with the executed units added in place), so
	// the local runner keeps today's allocation profile (no
	// snapshot/rebuild round trip). Remote executors populate Counts
	// instead.
	acc *probAccumulator
}

// CountsSnapshot exports the ExecOS payload as canonical-order
// checkpoint entries regardless of which internal representation the
// executor used. Remote executors serialize this; merging the entries of
// several ranges (adding counts per butterfly) equals running the union
// of the ranges in one place.
func (r *ExecResult) CountsSnapshot() []ButterflyCount {
	if r.acc != nil {
		return r.acc.snapshot()
	}
	return r.Counts
}

// foldCounts merges an ExecOS payload into the accumulator the job
// carried as acc (a no-op when LocalExecutor already added it in place).
func (r *ExecResult) foldCounts(a *probAccumulator) {
	switch {
	case r.acc == a:
	case r.acc != nil:
		a.merge(r.acc)
	case len(r.Counts) > 0:
		a.merge(accumulatorFromCounts(r.Counts))
	}
}

// foldCandCounts adds an ExecOptimized payload into the counts the job
// carried (a no-op when LocalExecutor already added it in place).
func (r *ExecResult) foldCandCounts(counts []int64) {
	if len(r.CandCounts) > 0 && &r.CandCounts[0] == &counts[0] {
		return
	}
	for i, cnt := range r.CandCounts {
		counts[i] += cnt
	}
}

// LocalExecutor runs job ranges on an in-process worker pool: the
// chunked atomic-cursor dispatch of parLoop for several workers, or one
// worker inline on the caller's goroutine. It holds the only copy of each
// estimator's trial body. The zero value is ready to use (GOMAXPROCS
// workers).
type LocalExecutor struct {
	// Workers sets the pool size (0 means GOMAXPROCS).
	Workers int
}

// workerCount resolves the pool size for a job, clamped to the remaining
// units so short tails don't spin idle goroutines.
func (e *LocalExecutor) workerCount(job *ExecJob) int {
	w := e.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(min(w, job.Units-job.Start), 1)
}

// ExecuteTrials implements TrialExecutor.
func (e *LocalExecutor) ExecuteTrials(job *ExecJob) (*ExecResult, error) {
	if job.Start >= job.Units {
		return &ExecResult{Done: job.Units, acc: job.acc}, nil
	}
	switch job.Kind {
	case ExecOS:
		return e.runOS(job)
	case ExecOptimized:
		return e.runOptimized(job)
	case ExecKarpLuby:
		return e.runKarpLuby(job)
	}
	return nil, fmt.Errorf("core: LocalExecutor: unknown job kind %v", job.Kind)
}

// runOS executes Ordering Sampling world trials (lines 3–22 of Algorithm
// 2). Worker-local accumulators and kernels, merged at the end; no shared
// mutable state during the run (DeriveInto only reads the root stream).
// Each worker acquires one trial kernel (job.OS.Anchor picks which) and
// reuses it for every trial of every chunk it claims, so the steady-state
// per-trial cost is the kernel scan alone — no per-trial closures or
// derives.
func (e *LocalExecutor) runOS(job *ExecJob) (*ExecResult, error) {
	if err := job.OS.Anchor.check(job.Graph); err != nil {
		return nil, err
	}
	workers := e.workerCount(job)
	lead := workers == 1 // only a lone worker's tally is the running leader
	root := randx.New(job.Seed)
	onTrial := job.OS.OnTrial
	accs := make([]*probAccumulator, workers)
	idxs := make([]trialKernel, workers)
	done, err := parLoop(job.Probe, job.Start, job.Units, workers, job.Interrupt, func(w int) (func(int, int), func(int)) {
		acc := job.acc
		if w > 0 || acc == nil {
			acc = newProbAccumulator()
		}
		accs[w] = acc
		// Worker kernels come from the graph snapshot's free list: across
		// runs over the same graph the ~1MB per-kernel scratch is reused
		// instead of reallocated.
		idx := acquireKernel(job.Graph, job.OS)
		idxs[w] = idx
		var sMB butterfly.MaxSet
		meter := newTrialMeter(job.Probe, w, idx.scanLen(), false)
		return func(lo, hi int) {
			for trial := lo; trial <= hi; trial++ {
				scanned, fellBack := idx.runTrialSeeded(root, uint64(trial), &sMB)
				hit := !sMB.Empty()
				if hit {
					acc.addMaxSet(&sMB)
				}
				if onTrial != nil {
					onTrial(trial, &sMB)
				}
				if meter.observe(trial, scanned, fellBack, hit) && lead {
					probeEstimate(job.Probe, 0, int64(acc.leadCount), trial, acc.leadB, acc.leadW)
				}
			}
		}, meter.flush
	})
	// parLoop has joined every worker, so the kernels are idle and can
	// rejoin the snapshot's free list (even on a worker panic).
	for _, idx := range idxs {
		if idx != nil {
			idx.release()
		}
	}
	if err != nil {
		return nil, err
	}
	merged := accs[0]
	for _, a := range accs[1:] {
		merged.merge(a)
	}
	return &ExecResult{Done: done, acc: merged}, nil
}

// runOptimized executes shared sampling trials of the optimized
// estimator (Algorithm 5). Each worker owns private lazy-sampling scratch
// and a private count vector (the first worker's is the job's counts,
// when it carried them), summed into one full-width vector at the end.
func (e *LocalExecutor) runOptimized(job *ExecJob) (*ExecResult, error) {
	workers := e.workerCount(job)
	lead := workers == 1 // only a lone worker's tally is the running leader
	c := job.Cands
	n := len(c.List)
	numE := c.G.NumEdges()
	// One id-indexed threshold table, shared read-only by all workers.
	// Presence draws compare one raw generator word against thresh[id],
	// draw-for-draw identical to randx.Bernoulli.
	thresh := edgeThresholds(c.G)
	root := randx.New(job.Seed)
	noEarlyBreak, onTrial := job.Optimized.DisableEarlyBreak, job.Optimized.OnTrial
	var relevant []bigraph.EdgeID // union of candidate edges, for the eager ablation
	if job.Optimized.EagerSampling {
		seen := make([]bool, numE)
		for _, cand := range c.List {
			for _, id := range cand.Edges {
				if !seen[id] {
					seen[id] = true
					relevant = append(relevant, id)
				}
			}
		}
	}
	countsPer := make([][]int64, workers)
	done, err := parLoop(job.Probe, job.Start, job.Units, workers, job.Interrupt, func(w int) (func(int, int), func(int)) {
		cw := job.counts
		if w > 0 || cw == nil {
			cw = make([]int64, n)
		}
		countsPer[w] = cw
		stamp := make([]int32, numE)
		val := make([]bool, numE)
		var hitsW []int // hits buffer, carried across calls
		meter := newTrialMeter(job.Probe, w, n, true)
		return func(lo, hi int) {
			// The loop runs on locals: the compiler keeps them in
			// registers, but reloads a closure's variables after every
			// store (and those the closure writes live on the heap).
			list, cw, stamp, val, thresh := c.List, cw, stamp, val, thresh
			hits := hitsW
			var rng randx.RNG
			for trial := lo; trial <= hi; trial++ {
				root.DeriveInto(uint64(trial), &rng)
				cur := int32(trial) // stamp generation: stamps start at 0, trials at 1
				for _, id := range relevant {
					stamp[id] = cur
					val[id] = rng.BernoulliThresholded(thresh[id])
				}
				wMax := math.Inf(-1)
				hits = hits[:0]
				examined := n
				for k := range list { // line 4: B_k in weight order
					cand := &list[k]
					if cand.Weight < wMax { // line 5
						if noEarlyBreak {
							continue
						}
						examined = k
						break // line 6
					}
					exists := true
					for _, id := range cand.Edges { // line 7: lazy sampling
						if stamp[id] != cur {
							stamp[id] = cur
							val[id] = rng.BernoulliThresholded(thresh[id])
						}
						if !val[id] {
							exists = false
							break
						}
					}
					if exists { // lines 8–10
						cw[k]++
						hits = append(hits, k)
						wMax = cand.Weight
					}
				}
				if onTrial != nil {
					onTrial(trial, hits)
				}
				if meter.observe(trial, examined, false, len(hits) > 0) && lead {
					probeOptimizedLeader(job.Probe, c, cw, trial)
				}
			}
			hitsW = hits
		}, meter.flush
	})
	if err != nil {
		return nil, err
	}
	counts := countsPer[0]
	for _, cw := range countsPer[1:] {
		for i, cnt := range cw {
			counts[i] += cnt
		}
	}
	return &ExecResult{Done: done, CandCounts: counts}, nil
}

// runKarpLuby prices candidates Start..Units-1 (Algorithm 4). parLoop's
// 1-based "trials" start+1..n map to candidate indices start..n-1; writes
// into the full-width vectors are per-index disjoint. A candidate other
// than job.KL.OnlyCandidate, when that is set, is left unpriced at 0.
func (e *LocalExecutor) runKarpLuby(job *ExecJob) (*ExecResult, error) {
	workers := e.workerCount(job)
	c := job.Cands
	n := job.Units
	probs := make([]float64, n)
	trials := make([]int, n)
	numE := c.G.NumEdges()
	thresh := edgeThresholds(c.G) // shared read-only by all workers
	root := randx.New(job.Seed)
	only := job.KL.OnlyCandidate
	done, err := parLoop(job.Probe, job.Start, n, workers, job.Interrupt, func(w int) (func(int, int), func(int)) {
		scratch := newKLScratch(numE, thresh)
		lastT := time.Now()
		return func(lo, hi int) {
			for trial := lo; trial <= hi; trial++ {
				i := trial - 1
				if only != nil && i != *only {
					continue
				}
				probs[i], trials[i] = klPrice(c, i, job.KL, root, scratch)
				probeKLCandidate(job.Probe, w, i, trials[i], &lastT)
			}
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ExecResult{Done: done, CandProbs: probs, CandTrials: trials}, nil
}
