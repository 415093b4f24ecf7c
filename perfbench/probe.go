package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// probeSizes sizes the layer probes of a traced run.
type probeSizes struct {
	reps                 int // repetitions of each probe
	osTrials, anchTrials int
	prep, estTrials      int
	jobs                 int // daemon probe jobs, split over the clients
}

// probePlan says which layer probes a traced run makes on its graph.
// A workload whose own queries already cross a layer skips that probe:
// cold_ols_400k's traced children time load, snapshot, prep and the
// estimator; serve_ols_ratings's own jobs time the daemon.
type probePlan struct {
	path    string
	graph   *mpmb.Graph // loaded graph to reuse, or nil to load path
	anchors []mpmb.VertexID
	sizes   probeSizes
	layers  bool // time load, snapshot build, prep and the estimator
	daemon  bool // run jobs through a daemon started on the graph
}

// probeLayers times direct calls into each layer's public functions on
// the workload's graph and records them as spans and counters.
func probeLayers(e *runEnv, p probePlan) error {
	tr, sz := e.tr, p.sizes
	rng := newRNG(e.cfg.seed, 7)
	g := p.graph
	if p.layers {
		for range sz.reps {
			runtime.GC()
			var err error
			a0 := allocatedMB()
			tr.timed(spanLoad, 0, func() { g, err = mpmb.LoadGraph(p.path) })
			if err != nil {
				return err
			}
			tr.count("bigraph.load_alloc_mb", allocatedMB()-a0)
			a0 = allocatedMB()
			tr.timed(spanSnapshot, 0, func() { core.NewKernelBench(g, core.OSOptions{}) })
			tr.count("core.snapshot_alloc_mb", allocatedMB()-a0)
		}
		for range sz.reps {
			seed := rng.Uint64()
			var cands *core.Candidates
			var err error
			tr.timed(spanPrep, sz.prep, func() { cands, err = core.PrepareCandidates(g, sz.prep, seed, core.OSOptions{}) })
			if err != nil {
				return err
			}
			tr.count("core.candidates", float64(cands.Len()))
			tr.timed(spanEstimator, sz.estTrials, func() {
				_, err = core.OLSSamplingPhase(cands, core.OLSOptions{PrepTrials: sz.prep, Trials: sz.estTrials, Seed: seed})
			})
			if err != nil {
				return err
			}
		}
	}
	if g == nil {
		var err error
		if g, err = mpmb.LoadGraph(p.path); err != nil {
			return err
		}
	}
	if err := probeKernels(tr, g, rng.Uint64(), p); err != nil {
		return err
	}
	if p.daemon {
		return probeDaemon(e, p)
	}
	return nil
}

// probeKernels times the global OS kernel through the root package, the
// same run straight through core, the same run with an Observer
// attached, an anchored OS run and an observed OLS run.
func probeKernels(tr *tracer, g *mpmb.Graph, seed uint64, p probePlan) error {
	sz := p.sizes
	rng := newRNG(seed, 8)
	// One untimed run builds the snapshot if nothing has yet.
	if _, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: 1, Seed: seed}); err != nil {
		return err
	}
	for range sz.reps {
		seed := rng.Uint64()
		opt := mpmb.Options{Method: mpmb.MethodOS, Trials: sz.osTrials, Seed: seed}
		var err error
		m0 := mallocs()
		plain := timeIt(func() { _, err = mpmb.Search(g, opt) })
		if err != nil {
			return err
		}
		tr.count("core.os_allocs_per_trial", float64(mallocs()-m0)/float64(sz.osTrials))
		direct := timeIt(func() { _, err = core.OS(g, core.OSOptions{Trials: sz.osTrials, Seed: seed}) })
		if err != nil {
			return err
		}
		opt.Observer = mpmb.NewObserver(mpmb.ObserverConfig{})
		var res *mpmb.Result
		observed := timeIt(func() { res, err = mpmb.Search(g, opt) })
		opt.Observer.Close()
		if err != nil {
			return err
		}
		tr.record(spanOS, plain[0], plain[1], -1, -1, sz.osTrials)
		tr.record(spanOSDirect, direct[0], direct[1], -1, -1, sz.osTrials)
		tr.record(spanOSObserved, observed[0], observed[1], -1, -1, sz.osTrials)
		tr.count("mpmb.dispatch_overhead_ratio", ratio(plain, direct))
		tr.count("telemetry.observer_overhead_ratio", ratio(observed, plain))
		m := res.Metrics
		if m == nil || m.Trials == 0 {
			return fmt.Errorf("observed OS run reported no metrics")
		}
		tr.count("core.edges_scanned_per_trial", float64(m.EdgesScanned)/float64(m.Trials))
		tr.count("core.edge_prune_ratio", m.EdgePruneRate())
		tr.count("core.prefix_fallback_ratio", float64(m.PrefixFallbacks)/float64(m.Trials))

		a := p.anchors[rng.IntN(len(p.anchors))]
		anch := mpmb.Options{Method: mpmb.MethodOS, Trials: sz.anchTrials, Seed: seed, Query: &mpmb.Query{AnchorL: &a}}
		m0 = mallocs()
		tr.timed(spanAnchored, sz.anchTrials, func() { _, err = mpmb.Search(g, anch) })
		if err != nil {
			return err
		}
		tr.count("core.anchored_allocs_per_trial", float64(mallocs()-m0)/float64(sz.anchTrials))

		ols := mpmb.Options{Method: mpmb.MethodOLS, Trials: sz.estTrials, PrepTrials: sz.prep, Seed: seed,
			Observer: mpmb.NewObserver(mpmb.ObserverConfig{})}
		res, err = mpmb.Search(g, ols)
		ols.Observer.Close()
		if err != nil {
			return err
		}
		if res.Metrics == nil {
			return fmt.Errorf("observed OLS run reported no metrics")
		}
		tr.count("core.cand_prune_ratio", res.Metrics.CandPruneRate())
	}
	return nil
}

// probeDaemon starts a daemon on the workload's graph and runs a few
// jobs of the serve mix through it, every one traced.
func probeDaemon(e *runEnv, p probePlan) error {
	d, err := startDaemon(filepath.Dir(p.path), filepath.Join(e.dir, "probe-state"))
	if err != nil {
		return err
	}
	mix := jobMix{graph: filepath.Base(p.path), trials: p.sizes.estTrials, prep: p.sizes.prep, anchors: p.anchors}
	rng := newRNG(e.cfg.seed, 9)
	for range 4 {
		mix.pool = append(mix.pool, rng.Uint64())
	}
	perClient := int(math.Ceil(float64(p.sizes.jobs) / clients))
	recs := d.runClients(e, mix.clients(e.cfg.seed), time.Time{}, perClient, true)
	if err := d.stop(); err != nil {
		return err
	}
	for _, r := range recs {
		if r.err != nil {
			return fmt.Errorf("daemon probe job (%s): %w", r.kind, r.err)
		}
	}
	return nil
}

// timeIt runs f and returns when it started and ended.
func timeIt(f func()) [2]time.Time {
	start := time.Now()
	f()
	return [2]time.Time{start, time.Now()}
}

// ratio is how much longer interval a took than interval b, as a share
// of b.
func ratio(a, b [2]time.Time) float64 {
	return float64(a[1].Sub(a[0]))/float64(b[1].Sub(b[0])) - 1
}

// mallocs is the cumulative count of heap allocations of this process.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
