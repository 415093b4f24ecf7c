package core

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
)

// Cross-runner equivalence: a parallel runner is an implementation
// detail, so seed for seed its FULL Result — method tag, trial
// bookkeeping, partial flag and every estimate, bit for bit and in
// canonical order — must match the sequential runner's. The existing
// parallel tests compare estimate values; these pin the whole struct,
// and in particular workers=1 (a degenerate pool, historically the
// easiest configuration to special-case apart).

// requireSameResult asserts full Result identity.
func requireSameResult(t *testing.T, label string, seq, par *Result) {
	t.Helper()
	if par.Method != seq.Method || par.Trials != seq.Trials ||
		par.PrepTrials != seq.PrepTrials || par.TrialsDone != seq.TrialsDone ||
		par.Partial != seq.Partial {
		t.Fatalf("%s: result headers differ:\nseq: %+v\npar: %+v", label, headerOf(seq), headerOf(par))
	}
	if !reflect.DeepEqual(par.Estimates, seq.Estimates) {
		t.Fatalf("%s: estimates differ:\nseq: %v\npar: %v", label, seq.Estimates, par.Estimates)
	}
}

func headerOf(r *Result) map[string]any {
	return map[string]any{
		"Method": r.Method, "Trials": r.Trials, "PrepTrials": r.PrepTrials,
		"TrialsDone": r.TrialsDone, "Partial": r.Partial,
	}
}

func TestOSParallelFullResultEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 16)
		opt := OSOptions{Trials: 600, Seed: uint64(trial)*13 + 7}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3} {
			par, err := osOnPool(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os", seq, par)
		}
	}
}

func TestOLSParallelFullResultEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for trial := 0; trial < 3; trial++ {
		g := randGraph(r, 6, 6, 16)
		for _, useKL := range []bool{false, true} {
			opt := OLSOptions{
				PrepTrials:  40,
				Trials:      400,
				Seed:        uint64(trial)*17 + 3,
				UseKarpLuby: useKL,
			}
			seq, err := OLS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				par, err := olsOnPool(g, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, seq.Method, seq, par)
			}
		}
	}
}

// Kernel-vs-seed equivalence: the flat-memory trial kernel (SoA edge
// snapshot, threshold Bernoulli, open-addressed angle tables, batched
// chunk dispatch) is a pure optimization, so seed for seed its FULL
// Result must be bit-identical to the frozen seed implementation in
// osref.go — sequentially, under the degenerate workers=1 pool, and
// under a contended workers=8 pool.

func TestKernelMatchesSeedOS(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for trial := 0; trial < 6; trial++ {
		g := randGraph(r, 7, 7, 20)
		opt := OSOptions{Trials: 500, Seed: uint64(trial)*29 + 5}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		requireSameResult(t, "os kernel vs seed (sequential)", ref, seq)
		for _, workers := range []int{1, 8} {
			par, err := osOnPool(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os kernel vs seed (parallel)", ref, par)
		}
	}
}

func TestKernelMatchesSeedOSAblations(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 18)
		for _, opt := range []OSOptions{
			{Trials: 300, Seed: uint64(trial) + 1, DisableEdgePrune: true},
			{Trials: 300, Seed: uint64(trial) + 1, DropA2: true},
			{Trials: 300, Seed: uint64(trial) + 1, KeepAllAngles: true},
		} {
			ref, err := OSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := OS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os ablation kernel vs seed", ref, seq)
		}
	}
}

func TestKernelMatchesSeedOLS(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 4; trial++ {
		g := randGraph(r, 6, 6, 18)
		for _, useKL := range []bool{false, true} {
			opt := OLSOptions{
				PrepTrials:  30,
				Trials:      300,
				Seed:        uint64(trial)*19 + 2,
				UseKarpLuby: useKL,
			}
			ref, err := OLSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := OLS(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, ref.Method+" kernel vs seed (sequential)", ref, seq)
			for _, workers := range []int{1, 8} {
				par, err := olsOnPool(g, opt, workers)
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, ref.Method+" kernel vs seed (parallel)", ref, par)
			}
		}
	}
}

// TestKernelMatchesSeedAfterResume cuts a kernel run mid-flight, resumes
// it from the checkpoint, and requires the stitched Result to remain
// bit-identical to the seed implementation's uninterrupted run — the
// strongest form of the completed-prefix invariant surviving the batched
// chunk dispatch.
func TestKernelMatchesSeedAfterResume(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	g := randGraph(r, 7, 7, 20)

	t.Run("os", func(t *testing.T) {
		opt := OSOptions{Trials: 400, Seed: 9}
		ref, err := OSReference(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Cut the parallel run after ~the first few chunks; the interrupt
		// is polled concurrently, so count atomically.
		var polls atomic.Int64
		cut := opt
		cut.Interrupt = func() bool { return polls.Add(1) > 6 }
		part, err := osOnPool(g, cut, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !part.Partial || part.Checkpoint == nil {
			t.Skip("interrupt did not cut the run mid-flight on this machine")
		}
		res := opt
		res.Resume = part.Checkpoint
		for label, finish := range map[string]func() (*Result, error){
			"sequential": func() (*Result, error) { return OS(g, res) },
			"parallel":   func() (*Result, error) { return osOnPool(g, res, 4) },
		} {
			got, err := finish()
			if err != nil {
				t.Fatal(err)
			}
			requireSameResult(t, "os resume "+label, ref, got)
		}
	})

	for _, useKL := range []bool{false, true} {
		opt := OLSOptions{PrepTrials: 30, Trials: 300, Seed: 9, UseKarpLuby: useKL}
		t.Run(opt.method(), func(t *testing.T) {
			ref, err := OLSReference(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Estimates) == 0 {
				t.Skip("graph produced no candidates")
			}
			// Let the preparing phase through, cut the sampling phase.
			var polls atomic.Int64
			cut := opt
			cut.Interrupt = func() bool { return polls.Add(1) > int64(opt.PrepTrials)+4 }
			part, err := olsOnPool(g, cut, 4)
			if err != nil {
				t.Fatal(err)
			}
			if !part.Partial || part.Checkpoint == nil {
				t.Skip("interrupt did not cut the sampling phase mid-flight")
			}
			res := opt
			res.Resume = part.Checkpoint
			for label, finish := range map[string]func() (*Result, error){
				"sequential": func() (*Result, error) { return OLS(g, res) },
				"parallel":   func() (*Result, error) { return olsOnPool(g, res, 4) },
			} {
				got, err := finish()
				if err != nil {
					t.Fatal(err)
				}
				requireSameResult(t, opt.method()+" resume "+label, ref, got)
			}
		})
	}
}

// TestEstimateKarpLubyParallelSingleWorker covers the workers=1 pool the
// broader KL equivalence test skips.
func TestEstimateKarpLubyParallelSingleWorker(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	for trial := 0; trial < 3; trial++ {
		g := randDenseSmallGraph(r, 14)
		cands, err := AllBackboneCandidates(g)
		if err != nil {
			t.Fatal(err)
		}
		if cands.Len() == 0 {
			continue
		}
		opt := KLOptions{BaseTrials: 500, Seed: uint64(trial) + 11}
		seq, err := EstimateKarpLuby(cands, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := klOnPool(cands, opt, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seq) {
			t.Fatalf("workers=1 KL estimates differ:\nseq: %v\npar: %v", seq, par)
		}
	}
}
