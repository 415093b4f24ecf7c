package core

import (
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
)

// anchorContains reports whether b contains the anchor.
func anchorContains(b butterfly.Butterfly, a Anchor) bool {
	switch a.Kind {
	case AnchorLeft:
		return b.U1 == a.U || b.U2 == a.U
	case AnchorRight:
		return b.V1 == a.V || b.V2 == a.V
	case AnchorEdge:
		return (b.U1 == a.U || b.U2 == a.U) && (b.V1 == a.V || b.V2 == a.V)
	}
	return false
}

// refExactAnchored is an independent brute-force oracle: it enumerates
// worlds and lists every butterfly via the reference enumerator, keeping
// the max-weight set restricted to anchor-containing butterflies. It
// shares no traversal code with anchoredIndex.
func refExactAnchored(t *testing.T, g *bigraph.Graph, a Anchor) map[butterfly.Butterfly]float64 {
	t.Helper()
	probs := make(map[butterfly.Butterfly]float64)
	err := possible.Enumerate(g, func(w *possible.World, pr float64) bool {
		if pr == 0 {
			return true
		}
		var m butterfly.MaxSet
		butterfly.ForEachInWorld(g, w, func(b butterfly.Butterfly, wt float64) bool {
			if anchorContains(b, a) {
				m.Add(b, wt)
			}
			return true
		})
		for _, b := range m.Set {
			probs[b] += pr
		}
		return true
	})
	if err != nil {
		t.Fatalf("enumerate: %v", err)
	}
	return probs
}

// allAnchors lists every valid anchor of g.
func allAnchors(g *bigraph.Graph) []Anchor {
	var as []Anchor
	for u := 0; u < g.NumL(); u++ {
		as = append(as, Anchor{Kind: AnchorLeft, U: bigraph.VertexID(u)})
	}
	for v := 0; v < g.NumR(); v++ {
		as = append(as, Anchor{Kind: AnchorRight, V: bigraph.VertexID(v)})
	}
	for _, e := range g.Edges() {
		as = append(as, Anchor{Kind: AnchorEdge, U: e.U, V: e.V})
	}
	return as
}

// TestExactAnchoredMatchesReference certifies the anchored trial
// traversal itself: ExactAnchored (which drives anchoredIndex.runTrial
// over every world) must agree exactly with the independent reference
// oracle for every anchor of every graph.
func TestExactAnchoredMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	graphs := []*bigraph.Graph{figure1Graph()}
	for i := 0; i < 25; i++ {
		graphs = append(graphs, randGraph(r, 4, 4, 12))
	}
	for gi, g := range graphs {
		for _, a := range allAnchors(g) {
			ref := refExactAnchored(t, g, a)
			res, err := ExactAnchored(g, a)
			if err != nil {
				t.Fatalf("graph %d anchor %v: %v", gi, a, err)
			}
			if len(res.Estimates) != len(ref) {
				t.Fatalf("graph %d anchor %v: got %d estimates, want %d", gi, a, len(res.Estimates), len(ref))
			}
			for _, e := range res.Estimates {
				if !anchorContains(e.B, a) {
					t.Fatalf("graph %d anchor %v: estimate %v does not contain anchor", gi, a, e.B)
				}
				if want := ref[e.B]; math.Abs(e.P-want) > 1e-12 {
					t.Fatalf("graph %d anchor %v: P(%v) = %v, want %v", gi, a, e.B, e.P, want)
				}
			}
		}
	}
}

// TestAnchoredOSMatchesExact checks the sampled anchored estimator
// against the exact anchored oracle within the Hoeffding band.
func TestAnchoredOSMatchesExact(t *testing.T) {
	const trials = 4000
	r := rand.New(rand.NewSource(72))
	graphs := []*bigraph.Graph{figure1Graph()}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, randGraph(r, 4, 4, 12))
	}
	eps := statTol(trials)
	for gi, g := range graphs {
		for ai, a := range allAnchors(g) {
			exact, err := ExactAnchored(g, a)
			if err != nil {
				t.Fatal(err)
			}
			res, err := OS(g, OSOptions{Trials: trials, Seed: uint64(1000*gi + ai), Anchor: a})
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstExact(t, res, exact, eps)
		}
	}
}

// checkAgainstExact compares every estimated probability (and every
// exact butterfly missing from the estimate, at 0) within eps.
func checkAgainstExact(t *testing.T, res, exact *Result, eps float64) {
	t.Helper()
	seen := make(map[butterfly.Butterfly]bool)
	for _, e := range res.Estimates {
		want, ok := exact.Lookup(e.B)
		if !ok {
			t.Fatalf("estimated %v absent from exact oracle (P=%v)", e.B, e.P)
		}
		if math.Abs(e.P-want.P) > eps {
			t.Fatalf("P(%v) = %v, exact %v, tol %v", e.B, e.P, want.P, eps)
		}
		seen[e.B] = true
	}
	for _, e := range exact.Estimates {
		if !seen[e.B] && e.P > eps {
			t.Fatalf("exact butterfly %v (P=%v) never sampled, tol %v", e.B, e.P, eps)
		}
	}
}

// TestAnchoredOSParallelMatchesSequential: the parallel runner and an
// explicit in-process executor derive the same per-trial streams, so
// estimates must be identical.
func TestAnchoredOSParallelMatchesSequential(t *testing.T) {
	g := figure1Graph()
	for _, a := range allAnchors(g) {
		opt := OSOptions{Trials: 500, Seed: 9, Anchor: a}
		seq, err := OS(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		par, err := osOnPool(g, opt, 4)
		if err != nil {
			t.Fatal(err)
		}
		exe, err := osOnPool(g, opt, 3)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seq, par) || !reflect.DeepEqual(seq, exe) {
			t.Fatalf("anchor %v: sequential, parallel and executor Results differ\nseq %+v\npar %+v\nexe %+v", a, seq, par, exe)
		}
	}
}

// TestAnchoredOLSMatchesCandidateOracle prices the anchored candidate
// set exactly (Lemma VI.5 restricted to C_MB) and checks the anchored
// OLS sampling phase against it.
func TestAnchoredOLSMatchesCandidateOracle(t *testing.T) {
	const trials, prep = 4000, 100
	g := figure1Graph()
	eps := statTol(trials)
	for ai, a := range allAnchors(g) {
		for _, kl := range []bool{false, true} {
			seed := uint64(100 + ai)
			cands, err := PrepareCandidates(g, prep, seed, OSOptions{Anchor: a})
			if err != nil {
				t.Fatal(err)
			}
			oracle, err := ExactCandidateProbs(cands)
			if err != nil {
				t.Fatal(err)
			}
			opt := OLSOptions{Trials: trials, PrepTrials: prep, Seed: seed, UseKarpLuby: kl, OS: OSOptions{Anchor: a}}
			if kl {
				opt.KL.Mu = 0.05
			}
			res, err := olsOnPool(g, opt, 2)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Estimates) != cands.Len() {
				t.Fatalf("anchor %v kl=%v: %d estimates, %d candidates", a, kl, len(res.Estimates), cands.Len())
			}
			for _, e := range res.Estimates {
				if !anchorContains(e.B, a) {
					t.Fatalf("anchor %v: candidate %v does not contain anchor", a, e.B)
				}
			}
			for i, c := range cands.List {
				got, ok := res.Lookup(c.B)
				if !ok {
					t.Fatalf("anchor %v kl=%v: candidate %v missing from result", a, kl, c.B)
				}
				tol := eps
				if kl {
					tol = statTolScaled(c.ExistProb*float64(cands.Len()), trials)
					if tol < eps {
						tol = eps
					}
				}
				if math.Abs(got.P-oracle[i]) > tol {
					t.Fatalf("anchor %v kl=%v: P(%v) = %v, oracle %v, tol %v", a, kl, c.B, got.P, oracle[i], tol)
				}
			}
		}
	}
}

// pendantGraph has L0 as a zero-butterfly-support pendant (one edge to
// R0) next to a proper butterfly on {L1,L2}×{R1,R2}.
func pendantGraph() *bigraph.Graph {
	b := bigraph.NewBuilder(3, 3)
	b.MustAddEdge(0, 0, 5, 0.9) // pendant: L0 touches only R0
	b.MustAddEdge(1, 1, 2, 0.5)
	b.MustAddEdge(1, 2, 1, 0.6)
	b.MustAddEdge(2, 1, 3, 0.7)
	b.MustAddEdge(2, 2, 2, 0.8)
	return b.Build()
}

// TestAnchoredZeroSupport: a vertex (or edge) contained in no butterfly
// must yield an empty Result from every anchored runner.
func TestAnchoredZeroSupport(t *testing.T) {
	g := pendantGraph()
	anchors := []Anchor{
		{Kind: AnchorLeft, U: 0},
		{Kind: AnchorRight, V: 0},
		{Kind: AnchorEdge, U: 0, V: 0},
	}
	for _, a := range anchors {
		exact, err := ExactAnchored(g, a)
		if err != nil {
			t.Fatal(err)
		}
		if len(exact.Estimates) != 0 {
			t.Fatalf("anchor %v: exact oracle found %d butterflies", a, len(exact.Estimates))
		}
		res, err := OS(g, OSOptions{Trials: 200, Seed: 3, Anchor: a})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Estimates) != 0 {
			t.Fatalf("anchor %v: anchored OS returned %d estimates, want 0", a, len(res.Estimates))
		}
		ols, err := OLS(g, OLSOptions{Trials: 200, PrepTrials: 50, Seed: 3, OS: OSOptions{Anchor: a}})
		if err != nil {
			t.Fatal(err)
		}
		if len(ols.Estimates) != 0 {
			t.Fatalf("anchor %v: anchored OLS returned %d estimates, want 0", a, len(ols.Estimates))
		}
	}
}

func TestAnchorValidate(t *testing.T) {
	g := figure1Graph()
	bad := []Anchor{
		{},
		{Kind: AnchorLeft, U: 2},
		{Kind: AnchorRight, V: 3},
		{Kind: AnchorEdge, U: 5, V: 0},
		{Kind: AnchorEdge, U: 0, V: 9},
	}
	for _, a := range bad {
		if err := a.Validate(g); err == nil {
			t.Fatalf("anchor %+v: expected validation error", a)
		}
	}
	// A missing backbone edge between in-range endpoints.
	pg := pendantGraph()
	if err := (Anchor{Kind: AnchorEdge, U: 0, V: 1}).Validate(pg); err == nil {
		t.Fatal("non-backbone anchor edge: expected validation error")
	}
	if err := (Anchor{Kind: AnchorLeft, U: 1}).Validate(g); err != nil {
		t.Fatalf("valid anchor rejected: %v", err)
	}
}

// TestAnchoredCutResumes: an anchored run cut at any trial — OS, or
// either OLS phase, sequential or parallel — returns a checkpoint that
// records the anchor and resumes, on either runner, to the uncut Result.
func TestAnchoredCutResumes(t *testing.T) {
	g := figure1Graph()
	a := Anchor{Kind: AnchorLeft, U: 0}
	osOpt := OSOptions{Trials: 120, Seed: 1, Anchor: a}
	wantOS, err := OS(g, osOpt)
	if err != nil {
		t.Fatal(err)
	}
	olsOpt := func(kl bool) OLSOptions {
		return OLSOptions{Trials: 120, PrepTrials: 40, Seed: 1, UseKarpLuby: kl, KL: KLOptions{Mu: 0.05}, OS: OSOptions{Anchor: a}}
	}
	for _, workers := range []int{0, 3} {
		for cut := 0; cut <= 130; cut += 13 {
			opt := osOpt
			opt.Interrupt = pollBudget(cut)
			part, err := osOnPool(g, opt, workers)
			if err != nil {
				t.Fatal(err)
			}
			if part.Partial {
				if part.Checkpoint == nil || part.Checkpoint.Anchor != a {
					t.Fatalf("os w%d cut %d: checkpoint %+v does not record anchor %v", workers, cut, part.Checkpoint, a)
				}
				opt.Interrupt, opt.Resume = nil, part.Checkpoint
				if part, err = osOnPool(g, opt, 3-workers); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(part, wantOS) {
				t.Fatalf("os w%d cut %d: resumed Result differs from the uncut run", workers, cut)
			}
			for _, kl := range []bool{false, true} {
				want, err := OLS(g, olsOpt(kl))
				if err != nil {
					t.Fatal(err)
				}
				opt := olsOpt(kl)
				opt.Interrupt = pollBudget(cut)
				opt.Executor = LocalWorkers(workers)
				got, err := OLS(g, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Partial {
					if got.Checkpoint.Anchor != a {
						t.Fatalf("ols kl=%v w%d cut %d: checkpoint does not record the anchor", kl, workers, cut)
					}
					opt.Interrupt, opt.Resume = nil, got.Checkpoint
					opt.Executor = LocalWorkers(3 - workers)
					if got, err = OLS(g, opt); err != nil {
						t.Fatal(err)
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("ols kl=%v w%d cut %d: resumed Result differs from the uncut run", kl, workers, cut)
				}
			}
		}
	}
}

// pollBudget is an interrupt hook that fires from its (n+1)-th poll on,
// safe for the parallel runners' concurrent polls.
func pollBudget(n int) func() bool {
	var polls atomic.Int64
	return func() bool { return polls.Add(1) > int64(n) }
}

// TestAnchoredRunsBuildNoGlobalSnapshot: the anchored kernel reads the
// graph directly, so no anchored entry point — sequential, parallel,
// candidate preparation or either OLS estimator — builds the global
// weight-ordered snapshot, the dominant cold-start cost.
func TestAnchoredRunsBuildNoGlobalSnapshot(t *testing.T) {
	b := bigraph.NewBuilder(4, 4)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			b.MustAddEdge(bigraph.VertexID(u), bigraph.VertexID(v), float64(1+(u*v)%3), 0.6)
		}
	}
	g := b.Build()
	a := Anchor{Kind: AnchorRight, V: 1}
	for _, workers := range []int{0, 3} {
		if _, err := osOnPool(g, OSOptions{Trials: 200, Seed: 2, Anchor: a}, workers); err != nil {
			t.Fatal(err)
		}
		for _, kl := range []bool{false, true} {
			opt := OLSOptions{Trials: 200, PrepTrials: 30, Seed: 2, UseKarpLuby: kl, KL: KLOptions{Mu: 0.05}, OS: OSOptions{Anchor: a}, Executor: LocalWorkers(workers)}
			if _, err := OLS(g, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	SizePrep(g, &a, 2)
	if _, built := g.Derived(snapshotKey{}); built {
		t.Fatal("an anchored run built the global edge snapshot")
	}
}
