package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// ErrWorkerPanic wraps a panic recovered inside a parallel runner's worker
// goroutine. The panic does not crash the process: the first panicking
// worker records its value, the remaining workers drain, and the runner
// returns this error (no partial result — an abandoned chunk would break
// the completed-prefix invariant that partial results rely on). When the
// panic struck inside a claimed chunk, the wrapped text names that chunk's
// trial bounds, so a distributed lease reissue (or a local bisection) can
// name the poisoned range.
var ErrWorkerPanic = errors.New("core: worker panicked")

// parChunkTrials is the dispatch granularity of the parallel runners. A
// worker claims one chunk of consecutive trials at a time and always
// finishes a claimed chunk, so on cancellation the completed trials form
// an exact prefix 1..done — exactly the state a sequential resume expects.
// Small enough that cancellation latency is a few chunk-lengths of work,
// large enough that the atomic claim is amortized away.
const parChunkTrials = 16

func parDefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// parLoop runs trials start+1..end distributed over workers goroutines.
// newBody runs once on each worker's goroutine to set up worker-local
// scratch and returns the chunk function, which must execute trials
// lo..hi inclusive. Handing bodies a whole chunk (rather than one trial)
// lets them keep kernel state hot across the chunk and costs one indirect
// call per parChunkTrials trials instead of one per trial.
//
// Dispatch is chunked: a monotonic counter hands out chunks of
// parChunkTrials consecutive trials. Workers poll stop/interrupt only
// BETWEEN chunks and never abandon a claimed chunk, so every handed-out
// chunk is fully executed and the executed trials are exactly
// start+1..done for the returned done. A worker panic is recovered,
// cancels the siblings, and surfaces as an ErrWorkerPanic-wrapped error
// naming the claimed chunk's bounds; done is meaningless in that case
// because the panicking worker abandoned its chunk mid-flight.
func parLoop(start, end, workers int, interrupt func() bool, newBody func(w int) func(lo, hi int)) (done int, err error) {
	total := end - start
	nChunks := (total + parChunkTrials - 1) / parChunkTrials
	var next atomic.Int64
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	var panicMu sync.Mutex
	var panicErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// The claimed chunk's bounds, for the panic report. curHi==0
			// means no chunk was claimed yet (trial bounds are 1-based), so
			// the panic came from newBody or the between-chunk bookkeeping.
			var curLo, curHi int
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicErr == nil {
						if curHi > 0 {
							panicErr = fmt.Errorf("%w: trials %d..%d: %v", ErrWorkerPanic, curLo, curHi, r)
						} else {
							panicErr = fmt.Errorf("%w: %v", ErrWorkerPanic, r)
						}
					}
					panicMu.Unlock()
					halt()
				}
			}()
			body := newBody(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if interrupt != nil && interrupt() {
					halt()
					return
				}
				c := next.Add(1) - 1
				if c >= int64(nChunks) {
					return
				}
				lo := start + int(c)*parChunkTrials + 1
				hi := min(start+(int(c)+1)*parChunkTrials, end)
				curLo, curHi = lo, hi
				body(lo, hi)
			}
		}(w)
	}
	wg.Wait()
	if panicErr != nil {
		return 0, panicErr
	}
	handed := int(next.Load())
	if handed > nChunks {
		handed = nChunks
	}
	done = min(start+handed*parChunkTrials, end)
	return done, nil
}

// resolveExecutor picks the executor for a runner invocation. An explicit
// opt-level executor always wins (even for tiny remaining ranges — a
// distributed caller wants its fleet used, not silently bypassed). With
// none set, the historical behaviour is preserved exactly: clamp workers
// to the remaining units, fall back to the sequential runner for <=1, and
// otherwise use the in-process pool. seq reports whether the caller must
// take its sequential path.
func resolveExecutor(explicit TrialExecutor, workers, remaining int) (exec TrialExecutor, seq bool) {
	if explicit != nil {
		return explicit, false
	}
	if workers <= 0 {
		workers = parDefaultWorkers()
	}
	if workers > remaining {
		workers = remaining
	}
	if workers <= 1 {
		return nil, true
	}
	return &LocalExecutor{Workers: workers}, false
}

// OSParallel runs Ordering Sampling with trials distributed over workers
// goroutines (0 means GOMAXPROCS), or over opt.Executor when one is set.
// Trials are independent and each trial's random stream is derived from
// (Seed, trial index), so the estimates are bit-identical to the
// sequential OS with the same options — parallelism (local or
// distributed) changes wall-clock time, never results. Cancellation
// (opt.Interrupt, which every worker polls concurrently) yields the same
// partial-Result-plus-Checkpoint contract as OS, and opt.Resume continues
// such a checkpoint. The OnTrial hook is not supported here (trial
// completion order would be nondeterministic); use OS when tracing.
func OSParallel(g *bigraph.Graph, opt OSOptions, workers int) (*Result, error) {
	if err := opt.check(g, "OSParallel"); err != nil {
		return nil, err
	}
	if opt.OnTrial != nil {
		return nil, fmt.Errorf("core: OSParallel does not support OnTrial; use OS")
	}
	start := 0
	resumed := newProbAccumulator()
	if opt.Resume != nil {
		if err := opt.Resume.resumeCheck("os", opt.Seed, opt.Trials, 0, 0, opt.Anchor, g); err != nil {
			return nil, err
		}
		resumed = accumulatorFromCounts(opt.Resume.Counts)
		start = opt.Resume.Done
	}
	exec, seq := resolveExecutor(opt.Executor, workers, opt.Trials-start)
	if seq {
		return OS(g, opt)
	}
	r, err := exec.ExecuteTrials(&ExecJob{
		Kind:  ExecOS,
		Graph: g,
		Seed:  opt.Seed,
		Units: opt.Trials,
		Start: start,
		OS: OSOptions{
			DisableEdgePrune: opt.DisableEdgePrune,
			KeepAllAngles:    opt.KeepAllAngles,
			DropA2:           opt.DropA2,
			Anchor:           opt.Anchor,
		},
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Workers:   workers,
		Spec:      ExecSpec{Method: "os", Seed: opt.Seed, Trials: opt.Trials},
	})
	if err != nil {
		return nil, err
	}
	r.foldCounts(resumed)
	var res *Result
	if r.Done < opt.Trials {
		res = resumed.partialResult("os", g, opt.Seed, opt.Trials, r.Done, opt.Anchor)
	} else {
		res = resumed.result("os", opt.Trials)
	}
	probeFinish(opt.Probe, res)
	return res, nil
}

// EstimateOptimizedParallel runs the Algorithm 5 estimator with trials
// distributed over workers goroutines (0 means GOMAXPROCS), or over
// opt.Executor when one is set. Per-trial streams are derived from
// (Seed, trial index), so the estimates are bit-identical to
// EstimateOptimized with the same options. Cancellation and resume follow
// the sequential contract (opt.Interrupt is polled from every worker;
// opt.State reports the completed prefix). The OnTrial hook is
// unsupported (trial completion order would be nondeterministic), and the
// EagerSampling/DisableEarlyBreak ablations are sequential-only knobs.
func EstimateOptimizedParallel(c *Candidates, opt OptimizedOptions, workers int) ([]float64, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: optimized estimator requires Trials > 0, got %d", opt.Trials)
	}
	if opt.OnTrial != nil {
		return nil, fmt.Errorf("core: EstimateOptimizedParallel does not support OnTrial; use EstimateOptimized")
	}
	if opt.EagerSampling || opt.DisableEarlyBreak {
		return nil, fmt.Errorf("core: ablation options are sequential-only; use EstimateOptimized")
	}
	n := len(c.List)
	counts, startTrial, err := optimizedResumeCounts(n, opt)
	if err != nil {
		return nil, err
	}
	start := startTrial - 1
	exec, seq := resolveExecutor(opt.Executor, workers, opt.Trials-start)
	if seq {
		return EstimateOptimized(c, opt)
	}
	r, err := exec.ExecuteTrials(&ExecJob{
		Kind:      ExecOptimized,
		Graph:     c.G,
		Cands:     c,
		OS:        OSOptions{Anchor: c.Anchor},
		Seed:      opt.Seed,
		Units:     opt.Trials,
		Start:     start,
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Workers:   workers,
		Spec:      opt.Spec,
	})
	if err != nil {
		return nil, err
	}
	for i, cnt := range r.CandCounts {
		counts[i] += cnt
	}
	return optimizedFinish(counts, r.Done, opt, r.Done < opt.Trials), nil
}

// EstimateKarpLubyParallel runs the Algorithm 4 estimator with candidates
// distributed over workers goroutines (0 means GOMAXPROCS), or over
// opt.Executor when one is set. Unlike the trial-parallel runners, the
// natural axis here is the candidate: every candidate's estimation is
// independent (its random stream derives from (Seed, candidate index)),
// so per-candidate results are bit-identical to the sequential
// EstimateKarpLuby. Cancellation stops pricing at a candidate-prefix
// boundary and resume continues from it, like the sequential runner. The
// tracing and restriction hooks (OnCandidateTrial, OnlyCandidate) are
// sequential-only; TrialsUsed is supported.
func EstimateKarpLubyParallel(c *Candidates, opt KLOptions, workers int) ([]float64, error) {
	if err := validateKL(opt); err != nil {
		return nil, err
	}
	if opt.OnCandidateTrial != nil || opt.OnlyCandidate != nil {
		return nil, fmt.Errorf("core: EstimateKarpLubyParallel does not support tracing hooks; use EstimateKarpLuby")
	}
	n := len(c.List)
	probs := make([]float64, n)
	trialsUsed := make([]int, n)
	start, err := klResumeInit(n, opt, probs, trialsUsed)
	if err != nil {
		return nil, err
	}
	exec, seq := resolveExecutor(opt.Executor, workers, n-start)
	if seq {
		return EstimateKarpLuby(c, opt)
	}
	r, err := exec.ExecuteTrials(&ExecJob{
		Kind:  ExecKarpLuby,
		Graph: c.G,
		Cands: c,
		OS:    OSOptions{Anchor: c.Anchor},
		Seed:  opt.Seed,
		Units: n,
		Start: start,
		KL: KLOptions{
			BaseTrials: opt.BaseTrials,
			Mu:         opt.Mu,
			MaxTrials:  opt.MaxTrials,
		},
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Workers:   workers,
		Spec:      opt.Spec,
	})
	if err != nil {
		return nil, err
	}
	copy(probs[start:r.Done], r.CandProbs[start:r.Done])
	copy(trialsUsed[start:r.Done], r.CandTrials[start:r.Done])
	done := r.Done
	if opt.TrialsUsed != nil {
		*opt.TrialsUsed = trialsUsed
	}
	if opt.State != nil {
		*opt.State = EstimatorState{Partial: done < n, Done: done, Probs: probs, Trials: trialsUsed}
	}
	return probs, nil
}
