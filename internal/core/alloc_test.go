package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// The flat kernel's contract is that a steady-state trial allocates
// nothing: all per-trial state (live-edge regions, angle table, entry
// pool, derived RNG, max set) is preallocated or amortized during warm-up
// and reused afterwards. These tests are the regression gate for that
// contract — a stray closure, map, or append in the hot path fails them
// immediately.

// TestOSTrialZeroAllocs warms the kernel over a fixed trial window (so
// the entry pool, max set, and angle table reach their high-water marks)
// and then requires exactly zero allocations per trial over the same
// window.
func TestOSTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	g := randGraph(r, 10, 10, 40)
	idx := newOSIndex(g, OSOptions{})
	root := randx.New(123)
	var sMB butterfly.MaxSet

	const window = 256
	for trial := 1; trial <= window; trial++ {
		idx.runTrialSeeded(root, uint64(trial), &sMB)
	}

	trial := 0
	allocs := testing.AllocsPerRun(2*window, func() {
		trial = trial%window + 1
		idx.runTrialSeeded(root, uint64(trial), &sMB)
	})
	if allocs != 0 {
		t.Fatalf("OS kernel trial allocates %v times, want 0", allocs)
	}
}

// TestOSTrialZeroAllocsAblations repeats the gate under the pruning
// ablations, whose kernel paths differ.
func TestOSTrialZeroAllocsAblations(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	g := randGraph(r, 8, 8, 30)
	for _, opt := range []OSOptions{
		{DisableEdgePrune: true},
		{DropA2: true},
	} {
		idx := newOSIndex(g, opt)
		root := randx.New(55)
		var sMB butterfly.MaxSet
		const window = 128
		for trial := 1; trial <= window; trial++ {
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		}
		trial := 0
		allocs := testing.AllocsPerRun(2*window, func() {
			trial = trial%window + 1
			idx.runTrialSeeded(root, uint64(trial), &sMB)
		})
		if allocs != 0 {
			t.Fatalf("%+v: OS kernel trial allocates %v times, want 0", opt, allocs)
		}
	}
}

// TestOSParallelLowAllocs pins the parallel executor's allocation
// behavior at steady state. Before the snapshot cache and kernel pool,
// every parallel chunk built a fresh ~1MB osIndex and the path paid ~40
// allocations (~25KB) per trial; with the cache warm, a whole run costs
// only its fixed orchestration allocations (goroutines, chunk
// bookkeeping, per-worker accumulators), so the per-trial share must stay
// far below one.
func TestOSParallelLowAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(89))
	g := randGraph(r, 40, 20, 300)
	const trials, workers = 512, 2
	run := func() {
		if _, err := osOnPool(g, OSOptions{Trials: trials, Seed: 33}, workers); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm: build and calibrate the snapshot, pool the kernels
	allocs := testing.AllocsPerRun(10, run)
	if perTrial := allocs / trials; perTrial >= 1 {
		t.Fatalf("parallel OS allocates %.0f per run of %d trials (%.2f per trial), want well under 1 per trial",
			allocs, trials, perTrial)
	}
}

// TestKernelFreeListSurvivesGC: a snapshot keeps its idle kernels across
// garbage collections, so a repeat run over a cached snapshot allocates
// the same whether or not collections ran in between. A GC-cleared pool
// would rebuild the ~1MB kernel after every second cycle, and the
// allocations per trial would measure GC timing instead of the kernel.
func TestKernelFreeListSurvivesGC(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := randGraph(r, 40, 20, 300)
	run := func() {
		if _, err := OS(g, OSOptions{Trials: 64, Seed: 5}); err != nil {
			t.Fatal(err)
		}
	}
	gc := func() {
		runtime.GC()
		runtime.GC()
	}
	run() // build and calibrate the snapshot; its kernels go idle
	plain := testing.AllocsPerRun(5, run)
	// The collections allocate a little on their own (runtime
	// bookkeeping); only the run's share counts.
	gcOnly := testing.AllocsPerRun(5, gc)
	afterGC := testing.AllocsPerRun(5, func() {
		gc()
		run()
	}) - gcOnly
	if afterGC != plain {
		t.Fatalf("a repeat OS run allocates %v times after two GC cycles, %v without", afterGC, plain)
	}
}

// TestInterleavedGraphsKeepKernels: each graph keeps its own idle
// kernels, so alternating runs over two graphs allocate no more than the
// same runs one graph at a time — a switch of graph never rebuilds the
// other graph's ~1MB kernel.
func TestInterleavedGraphsKeepKernels(t *testing.T) {
	r := rand.New(rand.NewSource(101))
	g1, g2 := randGraph(r, 20, 20, 150), randGraph(r, 20, 20, 150)
	run := func(g *bigraph.Graph) {
		if _, err := OS(g, OSOptions{Trials: 32, Seed: 1}); err != nil {
			t.Fatal(err)
		}
	}
	run(g1) // build and calibrate both snapshots; their kernels go idle
	run(g2)
	alone := testing.AllocsPerRun(5, func() { run(g1) }) + testing.AllocsPerRun(5, func() { run(g2) })
	interleaved := testing.AllocsPerRun(5, func() {
		run(g1)
		run(g2)
	})
	if interleaved != alone {
		t.Fatalf("alternating runs over two graphs allocate %v per pair, %v one graph at a time", interleaved, alone)
	}
}

// TestSnapshotDiesWithGraph: the snapshot (and its kernel free list) is
// stored on its graph, so once no caller holds the graph both are
// collected — no cache keeps a dropped graph's several MB alive.
func TestSnapshotDiesWithGraph(t *testing.T) {
	collected := make(chan struct{})
	func() {
		g := randGraph(rand.New(rand.NewSource(103)), 20, 20, 150)
		if _, err := OS(g, OSOptions{Trials: 8, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		s, ok := g.Derived(snapshotKey{})
		if !ok {
			t.Fatal("OS stored no snapshot on its graph")
		}
		// The weight array holds no pointers, so it sits outside the
		// graph/snapshot/kernel cycle and can carry a finalizer.
		runtime.SetFinalizer(&s.(*edgeSnapshot).w[0], func(*float64) { close(collected) })
	}()
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		case <-deadline:
			t.Fatal("the snapshot of a graph no caller holds was never collected")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestOptimizedEstimatorTrialZeroAllocs measures the optimized
// estimator's marginal cost per trial: two runs differing by exactly
// extraTrials trials must allocate the same amount, i.e. everything the
// estimator allocates is per-run setup, not per-trial work.
func TestOptimizedEstimatorTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	g := randDenseSmallGraph(r, 14)
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if cands.Len() == 0 {
		t.Skip("graph has no butterflies")
	}

	run := func(trials int) {
		if _, err := EstimateOptimized(cands, OptimizedOptions{Trials: trials, Seed: 17}); err != nil {
			t.Fatal(err)
		}
	}
	const base, extraTrials = 1000, 1000
	short := testing.AllocsPerRun(5, func() { run(base) })
	long := testing.AllocsPerRun(5, func() { run(base + extraTrials) })
	// The hits scratch slice may still grow once or twice late in the
	// longer run; anything beyond a stray amortized append means the trial
	// loop itself allocates.
	if extra := long - short; extra > 2 {
		t.Fatalf("optimized estimator: %v extra allocations for %d extra trials, want ~0 (short=%v long=%v)",
			extra, extraTrials, short, long)
	}
}

// TestKarpLubyTrialZeroAllocs pins the same marginal property for the
// Karp-Luby estimator's trial loop: scaling BaseTrials must not scale
// allocations (per-candidate setup — diff sets, alias tables — is
// unavoidable, but trials are pure sampling).
func TestKarpLubyTrialZeroAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	g := randDenseSmallGraph(r, 14)
	cands, err := AllBackboneCandidates(g)
	if err != nil {
		t.Fatal(err)
	}
	if cands.Len() < 2 {
		t.Skip("graph has too few candidates")
	}

	run := func(baseTrials int) {
		if _, err := EstimateKarpLuby(cands, KLOptions{BaseTrials: baseTrials, Seed: 19}); err != nil {
			t.Fatal(err)
		}
	}
	const base, extraTrials = 1000, 1000
	short := testing.AllocsPerRun(5, func() { run(base) })
	long := testing.AllocsPerRun(5, func() { run(base + extraTrials) })
	if extra := long - short; extra > 2 {
		t.Fatalf("karp-luby estimator: %v extra allocations for %d extra trials, want ~0 (short=%v long=%v)",
			extra, extraTrials, short, long)
	}
}
