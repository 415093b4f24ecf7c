package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/serve"
)

// serve_ols_ratings: an in-process daemon with the default configuration
// on a loopback listener, and two closed-loop clients, one tenant each.

type serveSizes struct {
	scale        float64
	trials, prep int
	setups       int
	anchors      int // anchors are drawn from this many top-degree left vertices
	probe        probeSizes
}

func serveSize(smoke bool) serveSizes {
	if smoke {
		return serveSizes{scale: 0.05, trials: 50, prep: 50, setups: 1, anchors: 10,
			probe: probeSizes{reps: 1, osTrials: 20, anchTrials: 5, prep: 20, estTrials: 50}}
	}
	return serveSizes{scale: 1, trials: 300, prep: 100, setups: 3, anchors: 200,
		probe: probeSizes{reps: 3, osTrials: 200, anchTrials: 50, prep: 100, estTrials: 300}}
}

// clients is the number of closed-loop clients, one connection each.
const clients = 2

// rssJobs is how many jobs serve_ols_ratings runs before it reads its
// peak RSS.
const rssJobs = 100

func runServe(e *runEnv) (*outcome, error) {
	sz := serveSize(e.cfg.smoke)
	graphDir := filepath.Join(e.dir, "graphs")
	if err := os.MkdirAll(graphDir, 0o755); err != nil {
		return nil, err
	}
	const graphName = "ratings.graph"
	path := filepath.Join(graphDir, graphName)
	spec := genSpec{Dataset: "movielens", Scale: sz.scale, Seed: graphSeed, TopLeft: sz.anchors}
	rng := newRNG(e.cfg.seed, 1)
	mix := jobMix{graph: graphName, trials: sz.trials, prep: sz.prep}
	for range 4 {
		mix.pool = append(mix.pool, rng.Uint64())
	}

	// Set-up: generate, start the daemon, run one warm-up job.
	var d *daemon
	setup, err := e.setupTimes(sz.setups, func() error { return d.stop() }, func(i int) error {
		info, err := generate(spec, path)
		if err != nil {
			return err
		}
		mix.anchors = info.TopLeft
		if d, err = startDaemon(graphDir, filepath.Join(e.dir, fmt.Sprintf("state%d", i))); err != nil {
			return err
		}
		warm := mix.global(mix.pool[0])
		if rec := d.runJob("warmup", warm, nil, "", -1); rec.err != nil {
			d.stop()
			return fmt.Errorf("warm-up job: %w", rec.err)
		}
		if i == 0 {
			e.logf("input %s", info)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// The daemon keeps every finished job's Result in memory, so its RSS
	// grows with the jobs it has served. Peak RSS is taken after a fixed
	// number of jobs, or a faster daemon would read as a bigger one.
	d.rssAt = rssJobs
	cls := mix.clients(e.cfg.seed)
	var recs []jobRecord
	m, err := e.measure(func(deadline time.Time) ([]float64, error) {
		var times []float64
		for _, r := range d.runClients(e, cls, deadline, 0, false) {
			recs = append(recs, r)
			times = append(times, r.wall)
		}
		return times, nil
	})
	if err2 := d.stop(); err == nil {
		err = err2
	}
	if err != nil {
		return nil, err
	}
	peakRSS := d.rssMB
	if len(recs) < rssJobs {
		peakRSS = selfPeakRSSMB()
	}
	e.logf("%d jobs in %.1fs from %d clients", len(recs), m.wallS, clients)
	byKind := map[string][]float64{}
	for _, r := range recs {
		byKind[r.kind] = append(byKind[r.kind], r.wall)
	}
	for _, k := range []string{"cached", "fresh", "anchored"} {
		e.logf("  %-8s %3d jobs, p50 %.4fs", k, len(byKind[k]), median(byKind[k]))
	}

	g, err := mpmb.LoadGraph(path)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	checkJobs(e, o, g, recs)

	o.metrics = map[string]float64{
		"setup_s":       setup,
		"peak_rss_mb":   peakRSS,
		"success_ratio": successRatio(o.attempted, o.failed),
	}
	m.metrics(o.metrics)

	if e.tr != nil {
		err := probeLayers(e, probePlan{path: path, anchors: mix.anchors, sizes: sz.probe, layers: true})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// checkJobs checks every job's answer, then sends the first two jobs of
// each kind through an in-process Search with the same options and
// compares. Every job counts as attempted; a refused, failed or wrong
// job counts as failed.
func checkJobs(e *runEnv, o *outcome, g *mpmb.Graph, recs []jobRecord) {
	compared := map[string]int{}
	for i, r := range recs {
		o.attempted++
		err := r.err
		if err == nil {
			err = checkTop(g, r.top, r.spec.AnchorL)
		}
		if err == nil && compared[r.kind] < 2 {
			compared[r.kind]++
			opt := mpmb.Options{Method: mpmb.Method(r.spec.Method), Trials: r.spec.Trials,
				PrepTrials: r.spec.PrepTrials, Seed: r.spec.Seed}
			if r.spec.AnchorL != nil {
				opt.Query = &mpmb.Query{AnchorL: r.spec.AnchorL}
			}
			var res *mpmb.Result
			if res, err = mpmb.Search(g, opt); err == nil {
				err = sameTop(r.top, topOf(res, r.spec.TopK))
			}
			if err != nil {
				err = fmt.Errorf("/result differs from in-process Search (%s): %w", describe(opt), err)
			}
		}
		if err != nil {
			o.fail(e, "job %d (%s): %v", i, r.kind, err)
		}
	}
}

// jobMix describes the jobs the clients submit: global OLS jobs whose
// seed comes from a small pool, global OLS jobs with a new seed, and OLS
// jobs anchored at one of the highest-degree left vertices.
type jobMix struct {
	graph        string
	trials, prep int
	pool         []uint64
	anchors      []mpmb.VertexID
}

func (m jobMix) global(seed uint64) serve.JobSpec {
	return serve.JobSpec{Graph: m.graph, Method: string(mpmb.MethodOLS), Trials: m.trials,
		PrepTrials: m.prep, Seed: seed, TopK: 5}
}

// jobKinds is the order each client cycles through: half the jobs reuse
// a pool seed (the Searcher's candidate cache is read), a quarter bring a
// new seed (the cache is written), a quarter are anchored. A fixed cycle
// rather than a random draw keeps a run's mix the same for every seed.
var jobKinds = [...]string{"cached", "fresh", "cached", "anchored"}

// jobSource draws one client's jobs from the mix.
type jobSource struct {
	mix     jobMix
	rng     *rand.Rand
	anchors *anchorSampler
	n       int
}

func (m jobMix) source(rng *rand.Rand, first int) *jobSource {
	return &jobSource{mix: m, rng: rng, anchors: &anchorSampler{anchors: m.anchors, rng: rng}, n: first}
}

func (s *jobSource) next() (serve.JobSpec, string) {
	kind := jobKinds[s.n%len(jobKinds)]
	s.n++
	switch kind {
	case "cached":
		return s.mix.global(s.mix.pool[s.rng.IntN(len(s.mix.pool))]), kind
	case "fresh":
		return s.mix.global(s.rng.Uint64()), kind
	}
	spec := s.mix.global(s.mix.pool[s.rng.IntN(len(s.mix.pool))])
	a := s.anchors.pick()
	spec.AnchorL = &a
	return spec, kind
}

// daemon is an in-process serve.Server on a loopback listener, with the
// client the benchmark reaches it through.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	base   string
	client *http.Client

	// completed counts finished jobs; when it reaches rssAt, rssMB takes
	// this process's peak RSS so far.
	completed atomic.Int64
	rssAt     int64
	rssMB     float64

	nextID atomic.Int64 // the last query id given to a job
}

func startDaemon(graphRoot, stateDir string) (*daemon, error) {
	srv, err := serve.New(serve.Config{GraphRoot: graphRoot, StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop drains the daemon, closes its listener and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), d.srv.DrainBudget())
	defer cancel()
	err := d.srv.Drain(ctx)
	if err2 := d.hs.Shutdown(ctx); err == nil {
		err = err2
	}
	if err2 := <-d.served; err == nil && !errors.Is(err2, http.ErrServerClosed) {
		err = err2
	}
	d.client.CloseIdleConnections()
	return err
}

// jobRecord is one job as a client saw it.
type jobRecord struct {
	spec     serve.JobSpec
	kind     string
	wall     float64 // POST sent to result read, seconds
	rejected bool
	// prepTrials is the preparing trials the job actually ran; 0 when the
	// Searcher reused a cached candidate set.
	prepTrials int64
	top        []estimate
	err        error
}

// clientLoop is one closed-loop client. It keeps its job source and
// job count from one call of runClients to the next.
type clientLoop struct {
	tenant string
	jobs   *jobSource
	n      int
}

// clients makes the closed-loop clients, one tenant each.
func (m jobMix) clients(seed uint64) []*clientLoop {
	cls := make([]*clientLoop, clients)
	for c := range cls {
		cls[c] = &clientLoop{tenant: fmt.Sprintf("tenant%d", c), jobs: m.source(newRNG(seed, 100+uint64(c)), c)}
	}
	return cls
}

// runClients runs the closed-loop clients until the deadline passes (or,
// with maxJobs > 0, until each has run maxJobs jobs) and returns every
// job they ran in this call; each runs at least one. In a traced run
// each client alternates a cycle of traced jobs with a cycle of untraced
// ones, the reference for trace_overhead_ratio; a probe (see
// probeLayers) traces every job and records it outside the query spans.
func (d *daemon) runClients(e *runEnv, cls []*clientLoop, deadline time.Time, maxJobs int, probe bool) []jobRecord {
	more := func(n, k int) bool {
		if maxJobs > 0 {
			return n < maxJobs
		}
		return k == 0 || n < 2*len(jobKinds) || time.Now().Before(deadline)
	}
	var wg sync.WaitGroup
	per := make([][]jobRecord, len(cls))
	for c, cl := range cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; more(cl.n, k); k++ {
				spec, kind := cl.jobs.next()
				tr, name := e.tr, spanQuery
				switch {
				case probe:
					name = spanJob
				case cl.n/len(jobKinds)%2 == 0:
					tr = nil
				}
				cl.n++
				rec := d.runJob(cl.tenant, spec, tr, name, int(d.nextID.Add(1)))
				rec.kind = kind
				if tr == nil {
					e.tr.count(countUntraced, rec.wall)
					e.tr.count(countUserPath, rec.wall)
				}
				e.tr.count(countRejected, boolFloat(rec.rejected))
				if rec.err == nil && rec.spec.AnchorL == nil {
					e.tr.count(countPrepReused, boolFloat(rec.prepTrials == 0))
				}
				if d.completed.Add(1) == d.rssAt {
					d.rssMB = selfPeakRSSMB()
				}
				per[c] = append(per[c], rec)
			}
		}()
	}
	wg.Wait()
	var all []jobRecord
	for _, recs := range per {
		all = append(all, recs...)
	}
	return all
}

func boolFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runJob submits one job, waits for its event stream to close and
// fetches its result. With a tracer it also reads the job's status and
// records a span named name for the job, with its phases as children,
// under query id qid.
func (d *daemon) runJob(tenant string, spec serve.JobSpec, tr *tracer, name string, qid int) jobRecord {
	rec := jobRecord{spec: spec}
	t0 := time.Now()
	fail := func(err error) jobRecord {
		rec.err = err
		rec.wall = time.Since(t0).Seconds()
		return rec
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(err)
	}
	req, err := http.NewRequest(http.MethodPost, d.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return fail(err)
	}
	req.Header.Set("X-Tenant", tenant)
	var sub struct {
		ID string `json:"id"`
	}
	status, err := d.do(req, &sub)
	t1 := time.Now()
	if err != nil {
		rec.rejected = status == http.StatusTooManyRequests
		return fail(fmt.Errorf("submit: %w", err))
	}
	if _, err := d.get("/v1/jobs/"+sub.ID+"/events", nil); err != nil {
		return fail(fmt.Errorf("events: %w", err))
	}
	t2 := time.Now()
	var doc struct {
		Method  string `json:"method"`
		Partial bool   `json:"partial"`
		Metrics *struct {
			PrepTrials int64 `json:"prep_trials"`
		} `json:"metrics"`
		Top []estimate `json:"top"`
	}
	if _, err := d.get("/v1/jobs/"+sub.ID+"/result", &doc); err != nil {
		return fail(fmt.Errorf("result: %w", err))
	}
	t3 := time.Now()
	rec.wall = t3.Sub(t0).Seconds()
	switch {
	case doc.Method != spec.Method || doc.Partial:
		rec.err = fmt.Errorf("result: want a complete %s result, got method %q partial %v", spec.Method, doc.Method, doc.Partial)
		return rec
	case doc.Metrics == nil:
		rec.err = fmt.Errorf("result: no job metrics")
		return rec
	}
	rec.prepTrials, rec.top = doc.Metrics.PrepTrials, doc.Top
	if tr == nil {
		return rec
	}
	var st struct {
		State     string    `json:"state"`
		Submitted time.Time `json:"submitted"`
		Started   time.Time `json:"started"`
		Finished  time.Time `json:"finished"`
	}
	if _, err := d.get("/v1/jobs/"+sub.ID, &st); err != nil {
		rec.err = fmt.Errorf("status: %w", err)
		return rec
	}
	id := tr.record(name, t0, t3, -1, qid, 0)
	tr.record(spanSubmit, t0, t1, id, qid, 0)
	tr.record(spanQueueWait, st.Submitted, st.Started, id, qid, 0)
	tr.record(spanRun, st.Started, st.Finished, id, qid, spec.Trials)
	tr.record(spanNotify, st.Finished, t2, id, qid, 0)
	tr.record(spanResult, t2, t3, id, qid, 0)
	return rec
}

func (d *daemon) get(path string, into any) (int, error) {
	req, err := http.NewRequest(http.MethodGet, d.base+path, nil)
	if err != nil {
		return 0, err
	}
	return d.do(req, into)
}

// do sends req and decodes a 2xx JSON body into into (nil reads and
// drops the body, which for the events stream means waiting until the
// job's stream closes).
func (d *daemon) do(req *http.Request, into any) (int, error) {
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(data))
	}
	if into == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(data, into)
}
