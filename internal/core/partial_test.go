package core

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/butterfly"
)

// interruptAfter returns a concurrency-safe hook firing after n polls.
func interruptAfter(n int64) func() bool {
	var calls atomic.Int64
	return func() bool { return calls.Add(1) > n }
}

// reloadCheckpoint pushes a checkpoint through its binary serialization,
// so every resume test also exercises Encode/Decode round-tripping.
func reloadCheckpoint(t *testing.T, ck *Checkpoint) *Checkpoint {
	t.Helper()
	if ck == nil {
		t.Fatal("partial result carries no checkpoint")
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	out, err := DecodeCheckpoint(&buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

// assertCompleteMatch requires a resumed result to be a complete run
// bit-identical to the uninterrupted reference.
func assertCompleteMatch(t *testing.T, resumed, full *Result) {
	t.Helper()
	if resumed.Partial {
		t.Fatalf("resumed run still partial: %d/%d", resumed.TrialsDone, resumed.Trials)
	}
	if resumed.TrialsDone != resumed.Trials {
		t.Fatalf("resumed TrialsDone = %d, want %d", resumed.TrialsDone, resumed.Trials)
	}
	assertSameEstimates(t, resumed.Estimates, full.Estimates)
}

// TestResumeBitIdentical is the checkpoint contract for every resumable
// sequential method: cancel at T trials, serialize the checkpoint, resume,
// and require the finished result to equal an uninterrupted run bit for
// bit.
func TestResumeBitIdentical(t *testing.T) {
	g := figure1Graph()
	const full, cut = 150, 41

	t.Run("mc-vp", func(t *testing.T) {
		ref, err := MCVP(g, MCVPOptions{Trials: full, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		part, err := MCVP(g, MCVPOptions{Trials: full, Seed: 9, Interrupt: interruptAfter(cut)})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		resumed, err := MCVP(g, MCVPOptions{Trials: full, Seed: 9, Resume: reloadCheckpoint(t, part.Checkpoint)})
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})

	t.Run("os", func(t *testing.T) {
		ref, err := OS(g, OSOptions{Trials: full, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		part, err := OS(g, OSOptions{Trials: full, Seed: 9, Interrupt: interruptAfter(cut)})
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		resumed, err := OS(g, OSOptions{Trials: full, Seed: 9, Resume: reloadCheckpoint(t, part.Checkpoint)})
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})

	t.Run("ols-sampling", func(t *testing.T) {
		const prep = 25
		olsOpt := OLSOptions{PrepTrials: prep, Trials: full, Seed: 9}
		ref, err := OLS(g, olsOpt)
		if err != nil {
			t.Fatal(err)
		}
		cutOpt := olsOpt
		cutOpt.Interrupt = interruptAfter(prep + cut) // let the prep polls through
		part, err := OLS(g, cutOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != cut {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial %d", part.Partial, part.TrialsDone, cut)
		}
		resOpt := olsOpt
		resOpt.Resume = reloadCheckpoint(t, part.Checkpoint)
		resumed, err := OLS(g, resOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})

	t.Run("ols-prepare", func(t *testing.T) {
		const prep = 25
		olsOpt := OLSOptions{PrepTrials: prep, Trials: full, Seed: 9}
		ref, err := OLS(g, olsOpt)
		if err != nil {
			t.Fatal(err)
		}
		cutOpt := olsOpt
		cutOpt.Interrupt = interruptAfter(7) // cancel inside the preparing phase
		part, err := OLS(g, cutOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != 0 {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial with no sampling trials", part.Partial, part.TrialsDone)
		}
		ck := reloadCheckpoint(t, part.Checkpoint)
		if !ck.Prepare || ck.Done != 7 {
			t.Fatalf("checkpoint Prepare=%v Done=%d, want preparing-phase at 7", ck.Prepare, ck.Done)
		}
		resOpt := olsOpt
		resOpt.Resume = ck
		resumed, err := OLS(g, resOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})

	t.Run("ols-kl", func(t *testing.T) {
		// Enough preparing trials that all of Figure 1's butterflies join
		// the candidate set, so a candidate-granular cut leaves real work
		// for the resume.
		dg := g
		const prep = 30
		olsOpt := OLSOptions{PrepTrials: prep, Trials: 80, Seed: 9, UseKarpLuby: true, KL: KLOptions{Mu: 0.1}}
		ref, err := OLS(dg, olsOpt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ref.Estimates) < 2 {
			t.Fatalf("test graph produced %d candidates, want >= 2", len(ref.Estimates))
		}
		cutOpt := olsOpt
		cutOpt.Interrupt = interruptAfter(int64(prep) + 1) // price one candidate, then stop
		part, err := OLS(dg, cutOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.TrialsDone != 1 {
			t.Fatalf("Partial=%v TrialsDone=%d, want partial after 1 candidate", part.Partial, part.TrialsDone)
		}
		resOpt := olsOpt
		resOpt.Resume = reloadCheckpoint(t, part.Checkpoint)
		resumed, err := OLS(dg, resOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})
}

// TestResumeBitIdenticalParallel cancels parallel runs (nondeterministic
// stopping point, exact prefix guaranteed by chunked dispatch) and resumes
// them — in parallel — expecting bit-identity with an uninterrupted
// sequential run.
func TestResumeBitIdenticalParallel(t *testing.T) {
	g := figure1Graph()
	const full = 600

	t.Run("os", func(t *testing.T) {
		ref, err := OS(g, OSOptions{Trials: full, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		part, err := osOnPool(g, OSOptions{Trials: full, Seed: 11, Interrupt: interruptAfter(5)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial {
			t.Skipf("run finished before cancellation took effect (%d trials)", part.TrialsDone)
		}
		if part.TrialsDone >= full || part.TrialsDone < 0 {
			t.Fatalf("TrialsDone = %d outside [0,%d)", part.TrialsDone, full)
		}
		resumed, err := osOnPool(g, OSOptions{Trials: full, Seed: 11, Resume: reloadCheckpoint(t, part.Checkpoint)}, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})

	t.Run("ols", func(t *testing.T) {
		const prep = 25
		olsOpt := OLSOptions{PrepTrials: prep, Trials: full, Seed: 11}
		ref, err := OLS(g, olsOpt)
		if err != nil {
			t.Fatal(err)
		}
		cutOpt := olsOpt
		cutOpt.Interrupt = interruptAfter(prep + 5)
		part, err := olsOnPool(g, cutOpt, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial {
			t.Skipf("run finished before cancellation took effect (%d trials)", part.TrialsDone)
		}
		resOpt := olsOpt
		resOpt.Resume = reloadCheckpoint(t, part.Checkpoint)
		resumed, err := olsOnPool(g, resOpt, 4)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, ref)
	})
}

// TestResumePropertyRandomGraphs is the property form of the contract:
// random graphs, random cut points, every resumable method — resume must
// always reproduce the uninterrupted run exactly.
func TestResumePropertyRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for iter := 0; iter < 20; iter++ {
		g := randDenseSmallGraph(r, 14)
		seed := r.Uint64()
		full := 40 + r.Intn(120)
		cut := 1 + r.Intn(full-1)

		refOS, err := OS(g, OSOptions{Trials: full, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		part, err := OS(g, OSOptions{Trials: full, Seed: seed, Interrupt: interruptAfter(int64(cut))})
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := OS(g, OSOptions{Trials: full, Seed: seed, Resume: reloadCheckpoint(t, part.Checkpoint)})
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumed, refOS)

		prep := 5 + r.Intn(20)
		olsOpt := OLSOptions{PrepTrials: prep, Trials: full, Seed: seed}
		refOLS, err := OLS(g, olsOpt)
		if err != nil {
			t.Fatal(err)
		}
		cutOpt := olsOpt
		cutOpt.Interrupt = interruptAfter(int64(r.Intn(prep + full)))
		partOLS, err := OLS(g, cutOpt)
		if err != nil {
			t.Fatal(err)
		}
		if !partOLS.Partial {
			continue // interrupt landed past the end; nothing to resume
		}
		resOpt := olsOpt
		resOpt.Resume = reloadCheckpoint(t, partOLS.Checkpoint)
		resumedOLS, err := OLS(g, resOpt)
		if err != nil {
			t.Fatal(err)
		}
		assertCompleteMatch(t, resumedOLS, refOLS)
	}
}

// TestResumeRejectsMismatchedRun ensures a checkpoint only resumes the
// run that wrote it.
func TestResumeRejectsMismatchedRun(t *testing.T) {
	g := figure1Graph()
	part, err := OS(g, OSOptions{Trials: 100, Seed: 5, Interrupt: interruptAfter(10)})
	if err != nil {
		t.Fatal(err)
	}
	ck := part.Checkpoint

	cases := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"wrong seed", func() (*Result, error) { return OS(g, OSOptions{Trials: 100, Seed: 6, Resume: ck}) }},
		{"wrong trials", func() (*Result, error) { return OS(g, OSOptions{Trials: 200, Seed: 5, Resume: ck}) }},
		{"wrong method", func() (*Result, error) { return MCVP(g, MCVPOptions{Trials: 100, Seed: 5, Resume: ck}) }},
		{"wrong graph", func() (*Result, error) {
			other := randDenseSmallGraph(rand.New(rand.NewSource(1)), 10)
			return OS(other, OSOptions{Trials: 100, Seed: 5, Resume: ck})
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err == nil {
			t.Errorf("%s: resume accepted", tc.name)
		}
	}
}

// TestWorkerPanicIsolated injects a panic into the parallel runners (via
// the concurrently polled Interrupt hook) and requires a wrapped
// ErrWorkerPanic instead of a crashed process or a bogus partial result.
func TestWorkerPanicIsolated(t *testing.T) {
	g := figure1Graph()
	// panicHook lets `after` polls through (so sibling workers are
	// mid-flight) and then panics on a worker goroutine.
	panicHook := func(after int64) func() bool {
		var calls atomic.Int64
		return func() bool {
			if calls.Add(1) > after {
				panic("injected failure")
			}
			return false
		}
	}

	if _, err := osOnPool(g, OSOptions{Trials: 500, Seed: 2, Interrupt: panicHook(3)}, 4); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("OSParallel: err = %v, want ErrWorkerPanic", err)
	}

	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := optimizedOnPool(cands, OptimizedOptions{Trials: 500, Seed: 2, Interrupt: panicHook(3)}, 4); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("EstimateOptimizedParallel: err = %v, want ErrWorkerPanic", err)
	}
	// Karp-Luby has only len(cands) dispatch polls; panic on the first.
	if _, err := klOnPool(cands, KLOptions{BaseTrials: 50, Seed: 2, Interrupt: panicHook(0)}, 2); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("EstimateKarpLubyParallel: err = %v, want ErrWorkerPanic", err)
	}
	// The sequential preparing phase polls once per prep trial (calls
	// 1..5, below the threshold), so the panic lands in a sampling-phase
	// worker; five prep trials are enough to give Figure 1 candidates.
	if _, err := olsOnPool(g, OLSOptions{PrepTrials: 5, Trials: 500, Seed: 2, Interrupt: panicHook(7)}, 4); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("OLSParallel: err = %v, want ErrWorkerPanic", err)
	}

	// The one-worker run (no executor) runs inline on the caller's
	// goroutine and turns a panic into the same error.
	if _, err := OS(g, OSOptions{Trials: 500, Seed: 2, Interrupt: panicHook(3)}); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("OS: err = %v, want ErrWorkerPanic", err)
	}
	// With an interrupt it runs (and reports) one trial at a time; with
	// none, the chunks of the multi-worker grid.
	panicAt20 := func(trial int, _ *butterfly.MaxSet) {
		if trial == 20 {
			panic("injected failure at trial 20")
		}
	}
	never := func() bool { return false }
	if _, err := OS(g, OSOptions{Trials: 500, Seed: 2, OnTrial: panicAt20, Interrupt: never}); !errors.Is(err, ErrWorkerPanic) || !strings.Contains(err.Error(), "trials 20..20") {
		t.Fatalf("OS trial hook: err = %v, want ErrWorkerPanic naming trial 20", err)
	}
	if _, err := OS(g, OSOptions{Trials: 500, Seed: 2, OnTrial: panicAt20}); !errors.Is(err, ErrWorkerPanic) || !strings.Contains(err.Error(), "trials 17..32") {
		t.Fatalf("OS trial hook: err = %v, want ErrWorkerPanic naming chunk 17..32", err)
	}
	if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: 500, Seed: 2, Interrupt: panicHook(3)}); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("EstimateOptimized: err = %v, want ErrWorkerPanic", err)
	}
	if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: 50, Seed: 2, Interrupt: panicHook(0)}); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("EstimateKarpLuby: err = %v, want ErrWorkerPanic", err)
	}
	if _, err := OLS(g, OLSOptions{PrepTrials: 5, Trials: 500, Seed: 2, Interrupt: panicHook(7)}); !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("OLS: err = %v, want ErrWorkerPanic", err)
	}
}

// TestWorkerPanicReportsChunkBounds pins the panic diagnostics: the
// wrapped ErrWorkerPanic must name the panicking trial's chunk bounds,
// so a crash deep in a long run points at a small reproducible window
// instead of "somewhere in N trials".
func TestWorkerPanicReportsChunkBounds(t *testing.T) {
	// Chunks are parChunkTrials wide starting at trial 1, so trial 20
	// lives in chunk 17..32; only the body claiming that chunk panics.
	_, err := parLoop(nil, 0, 100, 3, nil, func(w int) (func(lo, hi int), func(int)) {
		return func(lo, hi int) {
			if lo <= 20 && 20 <= hi {
				panic("injected failure at trial 20")
			}
		}, nil
	})
	if !errors.Is(err, ErrWorkerPanic) {
		t.Fatalf("err = %v, want ErrWorkerPanic", err)
	}
	if !strings.Contains(err.Error(), "trials 17..32") {
		t.Fatalf("panic error does not name the chunk bounds: %v", err)
	}
	if !strings.Contains(err.Error(), "injected failure at trial 20") {
		t.Fatalf("panic error dropped the panic value: %v", err)
	}
}
