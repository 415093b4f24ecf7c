package mpmb

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/uncertain-graphs/mpmb/internal/core"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// Searcher answers repeated MPMB queries against one graph, reusing the
// expensive shared state between calls — most importantly the OLS
// preparing phase, which dominates total cost on large networks (Fig. 8):
// candidate sets are cached per (PrepTrials, Seed), so sweeping sampling
// budgets, switching between the OLS and OLS-KL estimators, or asking for
// different top-k views pays for candidate listing once. The
// package-level Search and SearchContext run on a fresh Searcher, so a
// Searcher returns bit-identical Results to them.
//
// A Searcher is safe for concurrent use. Concurrent searches needing the
// same (PrepTrials, Seed) candidate set are single-flighted: one caller
// runs the preparing phase while the others wait for its result, so a
// burst of identical queries — the multi-tenant daemon's steady state —
// pays for candidate listing exactly once.
type Searcher struct {
	g *Graph

	mu    sync.Mutex
	cands map[candKey]*candEntry
	comms map[uint64]*commEntry
}

// candKey identifies one preparing-phase run. The zero anchor is the
// global preparing phase; anchored queries cache their (disjoint)
// anchored candidate sets under the same map.
type candKey struct {
	prepTrials int
	seed       uint64
	anchor     core.Anchor
}

// candEntry is one single-flight slot: ready closes when the preparing
// phase finishes, after which cands is immutable. cands stays nil when
// the flight failed or was cut short; such a slot is never shared.
type candEntry struct {
	ready chan struct{}
	cands *core.Candidates
}

// commEntry is one cached community split: the induced subgraphs plus a
// child Searcher per community, so repeated community queries reuse both
// the split and each community's preparing phases. Keyed by a hash of
// the label slices; specL/specR keep the exact labels to rule out
// collisions.
type commEntry struct {
	ready chan struct{}
	specL []int
	specR []int
	subs  []core.CommunityGraph
	kids  []*Searcher
	err   error
}

// NewSearcher wraps g for repeated queries.
func NewSearcher(g *Graph) *Searcher {
	return &Searcher{
		g:     g,
		cands: make(map[candKey]*candEntry),
		comms: make(map[uint64]*commEntry),
	}
}

// Graph returns the wrapped graph.
func (s *Searcher) Graph() *Graph { return s.g }

// Search runs the method selected in opt, like the package-level Search,
// but OLS-family methods reuse the cached candidate set for
// (opt.PrepTrials, opt.Seed) instead of re-running the preparing phase.
func (s *Searcher) Search(opt Options) (*Result, error) {
	return s.run(opt, nil)
}

// SearchContext is Search with the package-level SearchContext's
// graceful-degradation contract: cancelling ctx returns a partial Result
// (with a resumable Checkpoint for the resumable methods) instead of
// discarding the completed trials. Pass the checkpoint back via
// opt.Resume, on this or any other Searcher or through SearchContext, to
// finish the run bit-identically.
func (s *Searcher) SearchContext(ctx context.Context, opt Options) (*Result, error) {
	return s.run(opt, ctxHook(ctx))
}

// run backs Search, SearchContext and both Searcher methods: it
// validates the options, resolves the query, runs the method and stamps
// the final Metrics snapshot onto the result.
func (s *Searcher) run(opt Options, interrupt func() bool) (*Result, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	if opt.Method == "" {
		opt.Method = MethodOLS
	}
	var res *Result
	var err error
	if q := opt.Query; q != nil && q.Community != nil {
		res, err = s.searchCommunities(opt, interrupt)
	} else {
		res, err = s.searchGraph(opt, interrupt)
	}
	if err != nil {
		return nil, err
	}
	finishMetrics(opt.Observer, res)
	return res, nil
}

// searchGraph runs a global, anchored or sized query on the whole graph.
func (s *Searcher) searchGraph(opt Options, interrupt func() bool) (*Result, error) {
	var anchor core.Anchor
	var sizing *core.PrepSizing
	if q := opt.Query; q != nil {
		if q.anchored() {
			a, err := q.coreAnchor(s.g)
			if err != nil {
				return nil, err
			}
			anchor = a
		}
		if q.AdaptivePrep {
			sz := applySizing(s.g, &opt, anchor)
			sizing = &sz
		}
	}
	res, err := s.runMethod(opt, anchor, interrupt)
	if err != nil {
		return nil, err
	}
	if sizing != nil {
		attachSizing(res, *sizing)
	}
	return res, nil
}

// runMethod hands a resolved query to the method's core runner.
func (s *Searcher) runMethod(opt Options, anchor core.Anchor, interrupt func() bool) (*Result, error) {
	probe := opt.Observer.probe(opt.Method, opt.Workers)
	switch opt.Method {
	case MethodExact:
		if anchor.Kind != 0 {
			return core.ExactAnchored(s.g, anchor)
		}
		return core.ExactInterruptible(s.g, interrupt)
	case MethodOLS, MethodOLSKL:
		return s.runOLS(opt, anchor, interrupt, probe)
	}
	if opt.adaptive() {
		return core.Supervise(s.g, supervisorOptions(opt, interrupt, nil, probe))
	}
	if opt.Method == MethodMCVP {
		return core.MCVP(s.g, core.MCVPOptions{
			Trials:    opt.Trials,
			Seed:      opt.Seed,
			Interrupt: interrupt,
			Resume:    opt.Resume,
			Probe:     probe,
		})
	}
	osOpt := core.OSOptions{
		Trials:    opt.Trials,
		Seed:      opt.Seed,
		Interrupt: interrupt,
		Resume:    opt.Resume,
		Probe:     probe,
		Executor:  opt.Executor,
		Anchor:    anchor,
	}
	if opt.Workers > 0 || opt.Executor != nil {
		return core.OSParallel(s.g, osOpt, opt.Workers)
	}
	return core.OS(s.g, osOpt)
}

// runOLS runs the OLS methods over the cached preparing phase.
func (s *Searcher) runOLS(opt Options, anchor core.Anchor, interrupt func() bool, probe *telemetry.Probe) (*Result, error) {
	if opt.adaptive() && opt.Resume != nil {
		// The supervisor owns a resumed run's preparing phase: a
		// checkpoint cut after an escalation targets more preparing
		// trials than the cache key names.
		return core.Supervise(s.g, supervisorOptions(opt, interrupt, nil, probe))
	}
	olsOpt := core.OLSOptions{
		PrepTrials:  opt.PrepTrials,
		Trials:      opt.Trials,
		Seed:        opt.Seed,
		UseKarpLuby: opt.Method == MethodOLSKL,
		KL:          core.KLOptions{Mu: opt.Mu},
		Interrupt:   interrupt,
		Resume:      opt.Resume,
		Probe:       probe,
		Executor:    opt.Executor,
		OS:          core.OSOptions{Anchor: anchor},
	}
	prepOpt := olsOpt
	switch {
	case opt.Resume != nil && !opt.Resume.Prepare:
		// The resumed run's preparing phase completed once already;
		// cutting it now would return a checkpoint behind the resumed one.
		prepOpt.Interrupt = nil
	case !opt.Deadline.IsZero():
		prepOpt.Interrupt = func() bool {
			return interrupt != nil && interrupt() || !time.Now().Before(opt.Deadline)
		}
	}
	key := candKey{prepTrials: opt.PrepTrials, seed: opt.Seed, anchor: anchor}
	cands, part, err := s.prepared(key, func() (*core.Candidates, *Result, error) {
		return core.PrepareOLS(s.g, prepOpt)
	})
	if err != nil {
		return nil, err
	}
	if opt.adaptive() {
		sup := supervisorOptions(opt, interrupt, cands, probe)
		if part != nil {
			// Resuming the cut preparing phase under the same hooks, which
			// stay fired, stops it again at once: the supervisor then
			// reports the stop in its own terms.
			sup.Resume = part.Checkpoint
		}
		return core.Supervise(s.g, sup)
	}
	if part != nil {
		return part, nil
	}
	return core.OLSSamplingPhaseParallel(cands, olsOpt, opt.Workers)
}

// supervisorOptions maps the public adaptive options onto the core
// supervisor's configuration. prepared threads the cached candidate set
// (nil lets the supervisor prepare its own).
func supervisorOptions(opt Options, interrupt func() bool, prepared *core.Candidates, probe *telemetry.Probe) core.SupervisorOptions {
	return core.SupervisorOptions{
		Method:         string(opt.Method),
		Trials:         opt.Trials,
		PrepTrials:     opt.PrepTrials,
		Seed:           opt.Seed,
		Workers:        opt.Workers,
		AuditEvery:     opt.AuditEvery,
		MaxEscalations: opt.MaxEscalations,
		Epsilon:        opt.Epsilon,
		Deadline:       opt.Deadline,
		StallTimeout:   opt.StallTimeout,
		Interrupt:      interrupt,
		KL:             core.KLOptions{Mu: opt.Mu},
		Prepared:       prepared,
		Resume:         opt.Resume,
		Probe:          probe,
	}
}

// prepared returns the completed preparing phase for key, running prep
// at most once across concurrent callers. Only a completed phase is
// cached and shared: when a flight fails or is cut short, its own caller
// gets prep's result, and callers that waited on it run their own.
func (s *Searcher) prepared(key candKey, prep func() (*core.Candidates, *Result, error)) (*core.Candidates, *Result, error) {
	s.mu.Lock()
	for {
		e, ok := s.cands[key]
		if !ok {
			break
		}
		s.mu.Unlock()
		// A completed phase (ready already closed) or one in flight;
		// wait rather than duplicating the work. The follower's probe
		// records nothing for the preparing phase — the metrics reflect
		// work done, not work awaited.
		<-e.ready
		if e.cands != nil {
			return e.cands, nil, nil
		}
		s.mu.Lock()
	}
	e := &candEntry{ready: make(chan struct{})}
	s.cands[key] = e
	s.mu.Unlock()

	// Prepare outside the lock: the phase is expensive and the slot
	// already claims the key, so concurrent identical preps run once.
	cands, part, err := prep()
	if cands != nil {
		e.cands = cands
	} else {
		s.mu.Lock()
		delete(s.cands, key)
		s.mu.Unlock()
	}
	close(e.ready)
	return cands, part, err
}

// CandidateCount reports how many candidate butterflies the preparing
// phase for (prepTrials, seed) finds, materializing (and caching) it.
func (s *Searcher) CandidateCount(prepTrials int, seed uint64) (int, error) {
	cands, _, err := s.prepared(candKey{prepTrials: prepTrials, seed: seed}, func() (*core.Candidates, *Result, error) {
		return core.PrepareOLS(s.g, core.OLSOptions{PrepTrials: prepTrials, Seed: seed})
	})
	if err != nil {
		return 0, err
	}
	return cands.Len(), nil
}

// searchCommunities runs a per-community query: one run per community
// on a cached child Searcher, fanned out with bounded concurrency, then
// merged into the top-level Result. The first error in community order
// wins.
func (s *Searcher) searchCommunities(opt Options, interrupt func() bool) (*Result, error) {
	subs, kids, err := s.communityEntry(opt.Query.Community)
	if err != nil {
		return nil, err
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	results := make([]*Result, len(subs))
	errs := make([]error, len(subs))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			cg := subs[i]
			res, err := kids[i].run(communityInnerOptions(opt, cg.ID), interrupt)
			if err != nil {
				errs[i] = fmt.Errorf("community %d: %w", cg.ID, err)
				return
			}
			results[i] = cg.RemapResult(res)
		}(i)
	}
	wg.Wait()
	parts := make([]core.CommunityResult, len(subs))
	for i, cg := range subs {
		if errs[i] != nil {
			return nil, errs[i]
		}
		parts[i] = core.CommunityResult{Community: cg.ID, Result: results[i]}
	}
	prep := 0
	if opt.Method == MethodOLS || opt.Method == MethodOLSKL {
		prep = opt.PrepTrials
	}
	return core.AssembleCommunityResult(string(opt.Method), opt.Trials, prep, opt.Query.Community.TopK, parts), nil
}

// communityInnerOptions derives one community's run options: a
// per-community seed (deterministic in the top-level seed and the
// label), a sequential inner run (the fan-out happens at the community
// level), and no observer (the top-level result carries the merged
// metrics snapshot).
func communityInnerOptions(opt Options, id int) Options {
	inner := opt
	inner.Workers = 0
	inner.Observer = nil
	inner.Query = nil
	if opt.Query.AdaptivePrep {
		inner.Query = &Query{AdaptivePrep: true}
	}
	inner.Seed = opt.Seed ^ (uint64(id)+1)*0x9e3779b97f4a7c15
	return inner
}

// communityEntry returns the cached (or freshly built) community split
// for the label slices, single-flighted like the candidate cache. A hash
// collision with different labels bypasses the cache rather than
// poisoning it.
func (s *Searcher) communityEntry(c *Communities) ([]core.CommunityGraph, []*Searcher, error) {
	key := communityLabelHash(c.L, c.R)
	s.mu.Lock()
	e, ok := s.comms[key]
	if ok {
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return nil, nil, e.err
		}
		if slices.Equal(e.specL, c.L) && slices.Equal(e.specR, c.R) {
			return e.subs, e.kids, nil
		}
		// Hash collision: build uncached.
		subs, err := communitySubgraphs(s.g, c)
		if err != nil {
			return nil, nil, err
		}
		return subs, communityKids(subs), nil
	}
	e = &commEntry{ready: make(chan struct{}), specL: slices.Clone(c.L), specR: slices.Clone(c.R)}
	s.comms[key] = e
	s.mu.Unlock()

	e.subs, e.err = communitySubgraphs(s.g, c)
	if e.err == nil {
		e.kids = communityKids(e.subs)
	} else {
		s.mu.Lock()
		if s.comms[key] == e {
			delete(s.comms, key)
		}
		s.mu.Unlock()
	}
	close(e.ready)
	return e.subs, e.kids, e.err
}

func communityKids(subs []core.CommunityGraph) []*Searcher {
	kids := make([]*Searcher, len(subs))
	for i, cg := range subs {
		kids[i] = NewSearcher(cg.G)
	}
	return kids
}

// communityLabelHash is FNV-1a over both label slices.
func communityLabelHash(l, r []int) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(len(l)))
	for _, c := range l {
		mix(uint64(int64(c)))
	}
	mix(uint64(len(r)))
	for _, c := range r {
		mix(uint64(int64(c)))
	}
	return h
}
