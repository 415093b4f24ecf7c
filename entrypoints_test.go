package mpmb

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

// searchThree runs opt through Search, a fresh Searcher and a Searcher
// that has already answered opt once, and fails unless all three return
// the same *OptionError or DeepEqual Results.
func searchThree(t *testing.T, g *Graph, opt Options) (*Result, error) {
	t.Helper()
	want, wantErr := Search(g, opt)
	fresh, freshErr := NewSearcher(g).Search(opt)
	s := NewSearcher(g)
	if _, err := s.Search(opt); (err == nil) != (wantErr == nil) {
		t.Fatalf("%+v: warming Searcher returned %v, Search %v", opt, err, wantErr)
	}
	reused, reusedErr := s.Search(opt)
	for _, c := range []struct {
		name string
		res  *Result
		err  error
	}{{"fresh Searcher", fresh, freshErr}, {"reused Searcher", reused, reusedErr}} {
		if wantErr != nil || c.err != nil {
			var oe *OptionError
			if !errors.As(wantErr, &oe) || c.err == nil || !errors.As(c.err, &oe) || c.err.Error() != wantErr.Error() {
				t.Fatalf("%+v: %s returned error %v, Search %v; want the same *OptionError", opt, c.name, c.err, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(c.res, want) {
			t.Fatalf("%+v: %s Result differs from Search\n got: %+v\nwant: %+v", opt, c.name, c.res, want)
		}
	}
	return want, wantErr
}

// cutAfter is an interrupt hook that fires from its (n+1)-th poll on.
// Like a cancelled context it stays fired, and it is safe for the
// parallel runners' concurrent polls.
func cutAfter(n int64) func() bool {
	var polls atomic.Int64
	return func() bool { return polls.Add(1) > n }
}

// parityGraph is a 4×4 fixture with butterflies inside and across the
// two blockLabels communities, small enough for the exact method.
func parityGraph(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(4, 4)
	for _, e := range []Edge{
		{U: 0, V: 0, W: 2, P: 0.5}, {U: 0, V: 1, W: 3, P: 0.6}, {U: 0, V: 2, W: 1, P: 0.7},
		{U: 1, V: 0, W: 1, P: 0.7}, {U: 1, V: 1, W: 2, P: 0.8}, {U: 1, V: 2, W: 2, P: 0.4},
		{U: 2, V: 2, W: 4, P: 0.4}, {U: 2, V: 3, W: 1, P: 0.9}, {U: 2, V: 1, W: 3, P: 0.5},
		{U: 3, V: 2, W: 2, P: 0.5}, {U: 3, V: 3, W: 3, P: 0.6}, {U: 3, V: 1, W: 2, P: 0.3},
	} {
		b.MustAddEdge(e.U, e.V, e.W, e.P)
	}
	return b.Build()
}

// TestSearchEntryPointParity: for every method, query kind and Workers in
// {0, 3}, Search, a fresh Searcher and a reused Searcher agree exactly —
// on the Result, or on the *OptionError for a combination the query
// rejects.
func TestSearchEntryPointParity(t *testing.T) {
	g := parityGraph(t)
	queries := map[string]func() *Query{
		"global":          func() *Query { return nil },
		"anchor-l":        func() *Query { return &Query{AnchorL: vptr(0)} },
		"anchor-r":        func() *Query { return &Query{AnchorR: vptr(2)} },
		"anchor-edge":     func() *Query { return &Query{AnchorEdge: &EdgeAnchor{U: 1, V: 1}} },
		"community":       func() *Query { return &Query{Community: blockLabels()} },
		"adaptive-prep":   func() *Query { return &Query{AdaptivePrep: true} },
		"sized-anchor":    func() *Query { return &Query{AnchorL: vptr(1), AdaptivePrep: true} },
		"sized-community": func() *Query { return &Query{Community: blockLabels(), AdaptivePrep: true} },
	}
	for _, m := range Methods {
		for name, q := range queries {
			for _, workers := range []int{0, 3} {
				opt := Options{Method: m, Trials: 600, PrepTrials: 30, Seed: 5, Mu: 0.05, Workers: workers, Query: q()}
				if m == MethodExact {
					opt.Trials, opt.PrepTrials = 0, 0
				}
				t.Run(fmt.Sprintf("%s/%s/w%d", m, name, workers), func(t *testing.T) {
					searchThree(t, g, opt)
				})
			}
		}
	}
}

// TestCancelledSearchMatchesSearcher: under a cancelled context, Search
// and a fresh Searcher return the same partial Result — for OLS a
// prepare-phase checkpoint — and that checkpoint resumes through
// Searcher.SearchContext bit-identically to an uncancelled run. The cut
// preparing phase is not cached: the same Searcher then runs the full
// phase itself.
func TestCancelledSearchMatchesSearcher(t *testing.T) {
	g := figure1(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, m := range []Method{MethodMCVP, MethodOS, MethodOLS, MethodOLSKL, MethodExact} {
		opt := DefaultOptions()
		opt.Method = m
		opt.Trials = 2000
		part, err := SearchContext(cancelled, g, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		s := NewSearcher(g)
		got, err := s.SearchContext(cancelled, opt)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if !reflect.DeepEqual(got, part) {
			t.Fatalf("%s: cancelled Searcher returned %+v, SearchContext %+v", m, got, part)
		}
		if m == MethodExact {
			continue
		}
		if part.Checkpoint == nil {
			t.Fatalf("%s: cancelled run carries no checkpoint", m)
		}
		if (m == MethodOLS || m == MethodOLSKL) != part.Checkpoint.Prepare {
			t.Fatalf("%s: checkpoint Prepare = %v", m, part.Checkpoint.Prepare)
		}
		want, err := Search(g, opt)
		if err != nil {
			t.Fatal(err)
		}
		obs := NewObserver(ObserverConfig{})
		full := opt
		full.Observer = obs
		res, err := s.Search(full)
		if err != nil {
			t.Fatal(err)
		}
		if m == MethodOLS || m == MethodOLSKL {
			if got := obs.Metrics().PrepTrials; got != int64(opt.PrepTrials) {
				t.Fatalf("%s: after a cut prep the Searcher ran %d prep trials, want %d", m, got, opt.PrepTrials)
			}
		}
		res.Metrics = nil
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s: Searcher after a cut prep diverges from Search", m)
		}
		resume := opt
		resume.Resume = part.Checkpoint
		for _, rs := range []*Searcher{NewSearcher(g), s} {
			res, err := rs.SearchContext(context.Background(), resume)
			if err != nil {
				t.Fatalf("%s: resume: %v", m, err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Fatalf("%s: resumed Result differs from the uncancelled run", m)
			}
		}
	}
}

// TestPreparedNeverSharesCutFlight: a single-flight prep cut short is
// neither cached nor handed to a caller waiting on it; that caller runs
// its own preparing phase.
func TestPreparedNeverSharesCutFlight(t *testing.T) {
	g := figure1(t)
	s := NewSearcher(g)
	key := candKey{prepTrials: 50, seed: 3}
	full, err := core.PrepareCandidates(g, 50, 3, core.OSOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cutPart := &Result{Partial: true}
	started, release := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cands, part, err := s.prepared(key, func() (*core.Candidates, *Result, error) {
			close(started)
			<-release
			return nil, cutPart, nil
		})
		if cands != nil || part != cutPart || err != nil {
			t.Errorf("leader got (%v, %v, %v), want its own cut partial", cands, part, err)
		}
	}()
	<-started
	followerRan := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		cands, part, err := s.prepared(key, func() (*core.Candidates, *Result, error) {
			close(followerRan)
			return full, nil, nil
		})
		if cands != full || part != nil || err != nil {
			t.Errorf("follower got (%v, %v, %v), want its own completed candidates", cands, part, err)
		}
	}()
	close(release)
	wg.Wait()
	select {
	case <-followerRan:
	default:
		t.Fatal("follower was handed the cut flight instead of preparing")
	}
	cands, _, err := s.prepared(key, func() (*core.Candidates, *Result, error) {
		t.Error("completed phase was not cached")
		return nil, nil, errors.New("unreachable")
	})
	if cands != full || err != nil {
		t.Fatalf("cache holds %v, %v; want the follower's completed phase", cands, err)
	}
}

// TestAdaptivePrepResume: a global AdaptivePrep query cut at any point,
// in the preparing or the sampling phase, resumes from its checkpoint to
// the uncut Result, sequentially and with workers.
func TestAdaptivePrepResume(t *testing.T) {
	g := parityGraph(t)
	for _, m := range []Method{MethodOLS, MethodOLSKL} {
		for _, workers := range []int{0, 3} {
			opt := Options{Method: m, Trials: 3000, PrepTrials: 30, Seed: 9, Mu: 0.05, Workers: workers, Query: &Query{AdaptivePrep: true}}
			want, err := Search(g, opt)
			if err != nil {
				t.Fatal(err)
			}
			phases := map[bool]bool{}
			for _, n := range []int64{0, 40, 100, 101, 150} {
				part, err := NewSearcher(g).run(opt, cutAfter(n))
				if err != nil {
					t.Fatal(err)
				}
				if !part.Partial {
					// The run finished before the cut landed.
					if !reflect.DeepEqual(part, want) {
						t.Fatalf("%s/w%d: uncut run differs from Search", m, workers)
					}
					continue
				}
				if part.Checkpoint == nil {
					t.Fatalf("%s/w%d cut after %d polls: partial without a checkpoint", m, workers, n)
				}
				phases[part.Checkpoint.Prepare] = true
				resume := opt
				resume.Resume = part.Checkpoint
				got, err := NewSearcher(g).Search(resume)
				if err != nil {
					t.Fatalf("%s/w%d cut after %d polls: resume: %v", m, workers, n, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/w%d cut after %d polls: resumed Result differs\n got: %+v\nwant: %+v", m, workers, n, got, want)
				}
			}
			if !phases[true] || !phases[false] {
				t.Fatalf("%s/w%d: cuts landed in phases %v; want both the preparing and the sampling phase", m, workers, phases)
			}
		}
	}
}

// fuzzGraph builds a random graph with at most 12 edges and small
// partitions, so butterflies and weight ties are common and the exact
// method stays cheap.
func fuzzGraph(seed uint64, edges uint8) *Graph {
	r := rand.New(rand.NewPCG(seed, 0x6d706d62))
	numL, numR := 2+r.IntN(3), 2+r.IntN(3)
	b := NewBuilder(numL, numR)
	seen := make(map[[2]int]bool)
	for i := 0; i < int(edges%13); i++ {
		u, v := r.IntN(numL), r.IntN(numR)
		if seen[[2]int{u, v}] {
			continue
		}
		seen[[2]int{u, v}] = true
		b.MustAddEdge(VertexID(u), VertexID(v), float64(1+r.IntN(4)), 0.1+0.8*r.Float64())
	}
	return b.Build()
}

// fuzzQuery maps a selector onto a query variant, including invalid
// ones the validation must reject with a typed error.
func fuzzQuery(g *Graph, sel uint8, adaptivePrep bool, labelSeed uint64) *Query {
	var q *Query
	switch sel % 8 {
	case 1:
		q = &Query{AnchorL: vptr(0)}
	case 2:
		q = &Query{AnchorR: vptr(VertexID(g.NumR() - 1))}
	case 3:
		q = &Query{AnchorEdge: &EdgeAnchor{U: 1, V: 1}}
	case 4:
		r := rand.New(rand.NewPCG(labelSeed, 1))
		c := &Communities{L: make([]int, g.NumL()), R: make([]int, g.NumR()), TopK: r.IntN(3)}
		for i := range c.L {
			c.L[i] = r.IntN(3) - 1
		}
		for i := range c.R {
			c.R[i] = r.IntN(3) - 1
		}
		q = &Query{Community: c}
	case 5:
		q = &Query{AnchorL: vptr(VertexID(g.NumL()))}
	case 6:
		q = &Query{AnchorL: vptr(0), AnchorR: vptr(0)}
	case 7:
		q = &Query{}
	}
	if adaptivePrep {
		if q == nil {
			q = &Query{}
		}
		q.AdaptivePrep = true
	}
	return q
}

// FuzzSearchOptions is the differential fuzzer over the option space:
// every input runs through Search, a fresh Searcher and a reused
// Searcher, which must agree on a typed *OptionError or a bit-identical
// Result, never panic, and agree under a cancelled context too. A run
// cut mid-way resumes from its checkpoint to the uncut Result.
func FuzzSearchOptions(f *testing.F) {
	f.Add(uint64(1), uint8(12), uint8(4), int16(300), int8(20), int8(0), uint8(0), false, uint16(7))
	f.Add(uint64(2), uint8(9), uint8(2), int16(250), int8(10), int8(3), uint8(1), false, uint16(30))
	f.Add(uint64(3), uint8(12), uint8(3), int16(200), int8(15), int8(2), uint8(0), true, uint16(3))
	f.Add(uint64(4), uint8(8), uint8(0), int16(0), int8(0), int8(0), uint8(4), false, uint16(0))
	f.Add(uint64(5), uint8(11), uint8(1), int16(100), int8(5), int8(1), uint8(2), false, uint16(9))
	f.Add(uint64(6), uint8(10), uint8(6), int16(-3), int8(-1), int8(-2), uint8(6), true, uint16(1))
	f.Fuzz(func(t *testing.T, seed uint64, edges, method uint8, trials int16, prep, workers int8, query uint8, adaptivePrep bool, cut uint16) {
		g := fuzzGraph(seed, edges)
		methods := append([]Method{"", "bogus"}, Methods...)
		opt := Options{
			Method:     methods[int(method)%len(methods)],
			Trials:     int(trials) % 400,
			PrepTrials: int(prep) % 40,
			Seed:       seed,
			Mu:         0.05,
			Workers:    int(workers) % 5,
			Query:      fuzzQuery(g, query, adaptivePrep, seed),
		}
		want, err := searchThree(t, g, opt)
		if err != nil {
			return
		}
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		part, err := SearchContext(cancelled, g, opt)
		if err != nil {
			t.Fatalf("%+v: cancelled run: %v", opt, err)
		}
		if got, err := NewSearcher(g).SearchContext(cancelled, opt); err != nil || !reflect.DeepEqual(got, part) {
			t.Fatalf("%+v: cancelled Searcher returned (%+v, %v), SearchContext %+v", opt, got, err, part)
		}
		part, err = NewSearcher(g).run(opt, cutAfter(int64(cut%64)))
		if err != nil {
			t.Fatalf("%+v: cut run: %v", opt, err)
		}
		q := opt.Query
		if part.Partial && part.Checkpoint == nil && q != nil && q.anchored() && opt.Method != MethodExact {
			t.Fatalf("%+v: cut anchored run carries no checkpoint", opt)
		}
		if !part.Partial || part.Checkpoint == nil || q != nil && q.Community != nil {
			return // nothing to resume, or a query that rejects Resume
		}
		resume := opt
		resume.Resume = part.Checkpoint
		got, err := NewSearcher(g).Search(resume)
		if err != nil {
			t.Fatalf("%+v: resume: %v", opt, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: resumed Result differs from the uncut run\n got: %+v\nwant: %+v", opt, got, want)
		}
	})
}
