package main

import (
	"fmt"
	"path/filepath"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// warm_os_20k: one Searcher over a graph loaded once; each query is a
// global OS search followed by a vertex-anchored OS search, sequential.

type warmSizes struct {
	numL, numR, edges    int
	osTrials, anchTrials int
	setups               int
	anchors              int // anchors are drawn from this many top-degree left vertices
	probe                probeSizes
}

func warmSize(smoke bool) warmSizes {
	if smoke {
		return warmSizes{numL: 100, numR: 30, edges: 1500, osTrials: 100, anchTrials: 50, setups: 1, anchors: 10,
			probe: probeSizes{reps: 1, osTrials: 50, anchTrials: 10, prep: 20, estTrials: 50, jobs: 4}}
	}
	return warmSizes{numL: 2000, numR: 100, edges: 20000, osTrials: 2000, anchTrials: 500, setups: 3, anchors: 200,
		probe: probeSizes{reps: 3, osTrials: 2000, anchTrials: 500, prep: 100, estTrials: 2000, jobs: 12}}
}

func runWarm(e *runEnv) (*outcome, error) {
	sz := warmSize(e.cfg.smoke)
	path := filepath.Join(e.dir, "warm.graph")
	spec := genSpec{
		Synthetic: &mpmb.SyntheticConfig{NumL: sz.numL, NumR: sz.numR, NumEdges: sz.edges, DegreeSkew: 1.0},
		Seed:      graphSeed,
		TopLeft:   sz.anchors,
	}
	rng := newRNG(e.cfg.seed, 1)
	osOpt := func(seed uint64) mpmb.Options {
		return mpmb.Options{Method: mpmb.MethodOS, Trials: sz.osTrials, Seed: seed}
	}
	anchOpt := func(seed uint64, a mpmb.VertexID) mpmb.Options {
		return mpmb.Options{Method: mpmb.MethodOS, Trials: sz.anchTrials, Seed: seed, Query: &mpmb.Query{AnchorL: &a}}
	}

	// Set-up: generate, load, wrap in a Searcher, answer one query of
	// each class.
	var info graphInfo
	var g *mpmb.Graph
	var s *mpmb.Searcher
	setup, err := e.setupTimes(sz.setups, nil, func(int) error {
		var err error
		if info, err = generate(spec, path); err != nil {
			return err
		}
		if g, err = mpmb.LoadGraph(path); err != nil {
			return err
		}
		s = mpmb.NewSearcher(g)
		if _, err := s.Search(osOpt(rng.Uint64())); err != nil {
			return err
		}
		_, err = s.Search(anchOpt(rng.Uint64(), info.TopLeft[0]))
		return err
	})
	if err != nil {
		return nil, err
	}
	e.logf("input %s", info)

	// kept holds a few answers per class for the two-path check.
	type keptQuery struct {
		opt mpmb.Options
		res *mpmb.Result
	}
	var kept []keptQuery
	keptOS, keptAnch := 0, 0
	o := &outcome{}
	check := func(i int, opt mpmb.Options, res *mpmb.Result, err error, anchor *mpmb.VertexID) bool {
		o.attempted++
		if err == nil {
			err = checkTop(g, topOf(res, 5), anchor)
		}
		if err != nil {
			o.fail(e, "query %d (%s): %v", i, describe(opt), err)
			return false
		}
		return true
	}
	anchors := &anchorSampler{anchors: info.TopLeft, rng: rng}
	// warmQuery runs the i-th query, checks its answers and returns its
	// wall time.
	warmQuery := func(i int) float64 {
		t0 := time.Now()
		a := anchors.pick()
		gOpt, aOpt := osOpt(rng.Uint64()), anchOpt(rng.Uint64(), a)
		t1 := time.Now()
		gRes, gErr := s.Search(gOpt)
		t2 := time.Now()
		aRes, aErr := s.Search(aOpt)
		t3 := time.Now()
		// A traced run alternates traced queries with untraced ones, which
		// are the reference for trace_overhead_ratio.
		if e.tr != nil && i%2 == 1 {
			id := e.tr.record(spanQuery, t0, t3, -1, i, 0)
			e.tr.record(spanOS, t1, t2, id, i, sz.osTrials)
			e.tr.record(spanAnchored, t2, t3, id, i, sz.anchTrials)
		} else {
			e.tr.count(countUntraced, t3.Sub(t0).Seconds())
			e.tr.count(countUserPath, t3.Sub(t0).Seconds())
		}
		if check(i, gOpt, gRes, gErr, nil) && keptOS < 2 {
			kept, keptOS = append(kept, keptQuery{gOpt, gRes}), keptOS+1
		}
		if check(i, aOpt, aRes, aErr, &a) && keptAnch < 2 {
			kept, keptAnch = append(kept, keptQuery{aOpt, aRes}), keptAnch+1
		}
		return t3.Sub(t0).Seconds()
	}
	i := 0
	m, err := e.measure(func(deadline time.Time) ([]float64, error) {
		var times []float64
		for ; i < minQueries || len(times) == 0 || time.Now().Before(deadline); i++ {
			times = append(times, warmQuery(i))
		}
		return times, nil
	})
	if err != nil {
		return nil, err
	}
	peakRSS := selfPeakRSSMB()
	e.logf("%d queries in %.1fs; trials per query %d global + %d anchored", len(m.times), m.wallS, sz.osTrials, sz.anchTrials)

	// Two-path check: the Searcher's answers equal one-shot Search.
	for _, k := range kept {
		res, err := mpmb.Search(g, k.opt)
		if err == nil {
			err = sameTop(topOf(k.res, len(k.res.Estimates)), topOf(res, len(res.Estimates)))
		}
		if err != nil {
			o.fail(e, "%s: Searcher and Search disagree: %v", describe(k.opt), err)
		}
	}

	o.metrics = map[string]float64{
		"setup_s":       setup,
		"peak_rss_mb":   peakRSS,
		"success_ratio": successRatio(o.attempted, o.failed),
	}
	m.metrics(o.metrics)

	if e.tr != nil {
		err := probeLayers(e, probePlan{
			path: path, anchors: info.TopLeft, sizes: sz.probe, layers: true, daemon: true,
		})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// describe names a query's options in failure messages.
func describe(opt mpmb.Options) string {
	s := fmt.Sprintf("%s trials=%d prep=%d seed=%d", opt.Method, opt.Trials, opt.PrepTrials, opt.Seed)
	if q := opt.Query; q != nil && q.AnchorL != nil {
		s += fmt.Sprintf(" anchor_l=%d", *q.AnchorL)
	}
	return s
}
