package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// ErrWorkerPanic wraps a panic recovered inside an executor worker, at any
// worker count. The panic does not crash the process: the first panicking
// worker records its value, the remaining workers drain, and the runner
// returns this error (no partial result — an abandoned chunk would break
// the completed-prefix invariant that partial results rely on). When the
// panic struck inside a claimed chunk, the wrapped text names that chunk's
// trial bounds, so a distributed lease reissue (or a local bisection) can
// name the poisoned range.
var ErrWorkerPanic = errors.New("core: worker panicked")

// parChunkTrials is the dispatch granularity of a multi-worker run. A
// worker claims one chunk of consecutive trials at a time and always
// finishes a claimed chunk, so on cancellation the completed trials form
// an exact prefix 1..done — exactly the state a resume expects. Small
// enough that cancellation latency is a few chunk-lengths of work, large
// enough that the atomic claim is amortized away. A one-worker run with
// no interrupt to poll steps through the same chunk grid.
const parChunkTrials = 16

// parLoop runs trials start+1..end over workers workers and returns the
// completed prefix. newBody runs once per worker, on the worker's
// goroutine, to set up worker-local scratch; it returns run, which must
// execute trials lo..hi inclusive, and flush (nil for none), which
// publishes the telemetry the worker batched up to lastTrial, the last
// trial it completed.
//
// One worker runs inline on the caller's goroutine: it polls interrupt
// before every trial and never after the last (with no interrupt it runs
// whole chunks), and flushes once when it stops.
//
// More workers each run on a goroutine of their own (labelled for pprof
// and sized into probe's registry), with chunked dispatch: a monotonic
// counter hands out chunks of parChunkTrials consecutive trials. Workers
// poll stop/interrupt only BETWEEN chunks, never abandon a claimed chunk
// and flush after each one, so every handed-out chunk is fully executed
// and the executed trials are exactly start+1..done for the returned
// done.
//
// At any worker count a panic is recovered, cancels the siblings, and
// surfaces as an ErrWorkerPanic-wrapped error naming the claimed chunk's
// bounds; done is meaningless in that case because the panicking worker
// abandoned its chunk mid-flight.
func parLoop(probe *telemetry.Probe, start, end, workers int, interrupt func() bool, newBody func(w int) (run func(lo, hi int), flush func(lastTrial int))) (done int, err error) {
	if workers <= 1 {
		return runInline(start, end, interrupt, newBody)
	}
	probe.EnsureWorkers(workers)
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
						panicErr = workerPanic(r, curLo, curHi)
					}
					panicMu.Unlock()
					halt()
				}
			}()
			probe.LabelWorker(w)
			run, flush := newBody(w)
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
				run(lo, hi)
				if flush != nil {
					flush(hi)
				}
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

// runInline is parLoop's one-worker run on the caller's goroutine. With
// an interrupt it runs one trial per call, so the poll before each trial
// lands where the caller counts it; without one there is nothing to poll
// between trials, and it runs parChunkTrials per call on the chunk grid
// of a multi-worker run.
func runInline(start, end int, interrupt func() bool, newBody func(w int) (run func(lo, hi int), flush func(lastTrial int))) (done int, err error) {
	var lo, hi int // the range in flight, for the panic report (hi 0: none yet)
	defer func() {
		if r := recover(); r != nil {
			done, err = 0, workerPanic(r, lo, hi)
		}
	}()
	run, flush := newBody(0)
	step := parChunkTrials
	if interrupt != nil {
		step = 1
	}
	done = start
	for done < end {
		if interrupt != nil && interrupt() {
			break
		}
		lo, hi = done+1, min(done+step, end)
		run(lo, hi)
		done = hi
	}
	if flush != nil {
		flush(done)
	}
	return done, nil
}

// workerPanic wraps a recovered panic value, naming the claimed trial
// range lo..hi when there was one (hi > 0).
func workerPanic(r any, lo, hi int) error {
	if hi > 0 {
		return fmt.Errorf("%w: trials %d..%d: %v", ErrWorkerPanic, lo, hi, r)
	}
	return fmt.Errorf("%w: %v", ErrWorkerPanic, r)
}

// runExecutor resolves a runner's Executor option: nil means one
// in-process worker, run inline on the caller's goroutine.
func runExecutor(e TrialExecutor) TrialExecutor {
	if e == nil {
		return inlineExecutor
	}
	return e
}

// inlineExecutor is the stateless one-worker LocalExecutor, shared by
// every run without an executor.
var inlineExecutor = &LocalExecutor{Workers: 1}

// LocalWorkers is the Executor option for n in-process workers: nil (the
// inline one-worker run) for n <= 1, else &LocalExecutor{Workers: n}.
func LocalWorkers(n int) TrialExecutor {
	if n <= 1 {
		return nil
	}
	return &LocalExecutor{Workers: n}
}

// checkExecutor enforces what a runner can hand to an explicit executor.
// The trace hooks fire in trial order, so they need the inline one-worker
// run (a nil executor); the in-process-only options named by local (""
// for none set) reach workers through ExecJob fields a remote executor
// cannot ship, so they need a LocalExecutor.
func checkExecutor(e TrialExecutor, hooked bool, local string) error {
	if e == nil {
		return nil
	}
	if hooked {
		return fmt.Errorf("core: trace hooks need a nil Executor (one inline worker)")
	}
	if _, ok := e.(*LocalExecutor); !ok && local != "" {
		return fmt.Errorf("core: %s needs an in-process executor (nil or *LocalExecutor)", local)
	}
	return nil
}
