package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	mpmb "github.com/uncertain-graphs/mpmb"
	"github.com/uncertain-graphs/mpmb/internal/core"
)

// cold_ols_400k: one-shot OLS searches, each in a fresh mpmb-search
// process that loads the graph file and searches, run one after another.

type coldSizes struct {
	numL, numR, edges int
	prep, trials      int
	setups            int
	anchors           int // anchors are drawn from this many top-degree left vertices
	probe             probeSizes
}

func coldSize(smoke bool) coldSizes {
	if smoke {
		return coldSizes{numL: 100, numR: 30, edges: 1500, prep: 50, trials: 200, setups: 1, anchors: 10,
			probe: probeSizes{reps: 1, osTrials: 50, anchTrials: 5, prep: 20, estTrials: 50, jobs: 4}}
	}
	return coldSizes{numL: 20000, numR: 2000, edges: 400000, prep: 100, trials: 2000, setups: 3, anchors: 200,
		probe: probeSizes{reps: 3, osTrials: 500, anchTrials: 20, prep: 100, estTrials: 2000, jobs: 8}}
}

// coldDoc is what a cold query writes: the CLI's -json document, plus
// the layer spans and counters when the traced child wrote it.
type coldDoc struct {
	Method  string             `json:"method"`
	Partial bool               `json:"partial"`
	Top     []estimate         `json:"top"`
	Spans   []childSpan        `json:"spans,omitempty"`
	Counts  map[string]float64 `json:"counts,omitempty"`
}

// The kinds of cold query a traced run rotates through.
const (
	queryCLI = iota
	queryTraced
	queryUntraced
)

// childSpan is a span measured in a child process, in Unix nanoseconds.
type childSpan struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_unix_ns"`
	End    int64  `json:"end_unix_ns"`
	Trials int    `json:"trials,omitempty"`
}

func runCold(e *runEnv) (*outcome, error) {
	sz := coldSize(e.cfg.smoke)
	if e.cfg.cli == "" {
		return nil, fmt.Errorf("cold_ols_400k needs -cli, the path to the mpmb-search binary")
	}
	path := filepath.Join(e.dir, "cold.graph")
	spec := genSpec{
		Synthetic: &mpmb.SyntheticConfig{NumL: sz.numL, NumR: sz.numR, NumEdges: sz.edges, DegreeSkew: 1.0},
		Seed:      graphSeed,
		TopLeft:   sz.anchors,
	}
	var info graphInfo
	setup, err := e.setupTimes(sz.setups, nil, func(int) error {
		var err error
		info, err = generate(spec, path)
		return err
	})
	if err != nil {
		return nil, err
	}
	e.logf("input %s", info)

	var queries []coldQuery
	var rss []float64
	rng := newRNG(e.cfg.seed, 1)
	i := 0
	m, err := e.measure(func(deadline time.Time) ([]float64, error) {
		var times []float64
		for ; i < minQueries || len(times) == 0 || time.Now().Before(deadline); i++ {
			if err := coldQueryAt(e, sz, path, i, rng.Uint64(), &queries, &times, &rss); err != nil {
				return nil, err
			}
		}
		return times, nil
	})
	if err != nil {
		return nil, err
	}
	e.logf("%d queries in %.1fs, %d of them through the CLI", len(queries), m.wallS, len(m.times))

	// Checks, after timing: each answer's structure, then the same
	// options through an in-process Search.
	g, err := mpmb.LoadGraph(path)
	if err != nil {
		return nil, err
	}
	o := &outcome{}
	for i, q := range queries {
		o.attempted++
		if q.err != nil {
			o.fail(e, "query %d: %v", i, q.err)
			continue
		}
		if err := checkTop(g, q.doc.Top, nil); err != nil {
			o.fail(e, "query %d: %v", i, err)
			continue
		}
		res, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOLS, Trials: sz.trials, PrepTrials: sz.prep, Seed: q.seed})
		if err != nil {
			o.fail(e, "query %d: in-process Search: %v", i, err)
			continue
		}
		if err := sameTop(q.doc.Top, topOf(res, 5)); err != nil {
			o.fail(e, "query %d: child output differs: %v", i, err)
		}
	}

	o.metrics = map[string]float64{
		"setup_s":       setup,
		"peak_rss_mb":   median(rss),
		"success_ratio": successRatio(o.attempted, o.failed),
	}
	m.metrics(o.metrics)
	e.logf("trials per query %d (+%d preparing)", sz.trials, sz.prep)

	if e.tr != nil {
		err := probeLayers(e, probePlan{
			graph: g, path: path, anchors: info.TopLeft, sizes: sz.probe,
			layers: false, daemon: true,
		})
		if err != nil {
			return nil, err
		}
	}
	return o, nil
}

// coldQuery is one cold query as the benchmark saw it.
type coldQuery struct {
	seed uint64
	doc  coldDoc
	err  error
}

// coldQueryAt runs the i-th cold query with the given seed and records
// it: every query into queries, and a CLI query's wall time and peak
// RSS into times and rss.
func coldQueryAt(e *runEnv, sz coldSizes, path string, i int, seed uint64, queries *[]coldQuery, times, rss *[]float64) error {
	q := coldQuery{seed: seed}
	out := filepath.Join(e.dir, fmt.Sprintf("query%d.json", i))
	// A traced run rotates through three kinds of query: the CLI (the
	// user path unaccounted_s is measured against), the traced child,
	// and the same child with tracing off (the reference for
	// trace_overhead_ratio).
	kind := queryCLI
	if e.tr != nil {
		kind = i % 3
	}
	cmd := exec.Command(e.cfg.cli, "-graph", path, "-method", "ols",
		"-prep-trials", strconv.Itoa(sz.prep), "-trials", strconv.Itoa(sz.trials),
		"-seed", strconv.FormatUint(q.seed, 10), "-top-k", "5", "-json", out)
	if kind != queryCLI {
		self, err := os.Executable()
		if err != nil {
			return err
		}
		cmd = exec.Command(self, path, strconv.FormatUint(q.seed, 10),
			strconv.Itoa(sz.prep), strconv.Itoa(sz.trials), out, strconv.FormatBool(kind == queryTraced))
		cmd.Env = append(os.Environ(), childEnv+"=cold")
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t0 := time.Now()
	err := cmd.Run()
	t1 := time.Now()
	wall := t1.Sub(t0).Seconds()
	if err != nil {
		q.err = fmt.Errorf("%v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	} else {
		q.doc, q.err = readColdDoc(out)
	}
	switch {
	case kind == queryCLI:
		*times = append(*times, wall)
		if q.err == nil {
			*rss = append(*rss, childPeakRSSMB(cmd.ProcessState))
		}
		e.tr.count(countUserPath, wall)
	case kind == queryUntraced:
		e.tr.count(countUntraced, wall)
	case q.err == nil:
		id := e.tr.record(spanQuery, t0, t1, -1, i, 0)
		for _, s := range q.doc.Spans {
			e.tr.record(s.Name, time.Unix(0, s.Start), time.Unix(0, s.End), id, i, s.Trials)
		}
		for name, v := range q.doc.Counts {
			e.tr.count(name, v)
		}
	}
	*queries = append(*queries, q)
	return nil
}

// readColdDoc reads a cold query's output and checks it is a complete
// OLS result.
func readColdDoc(path string) (coldDoc, error) {
	var doc coldDoc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("decoding %s: %w", path, err)
	}
	if doc.Method != string(mpmb.MethodOLS) || doc.Partial {
		return doc, fmt.Errorf("%s: want a complete ols result, got method %q partial %v", path, doc.Method, doc.Partial)
	}
	return doc, nil
}

// coldChild runs one cold query the way a one-shot OLS search does,
// calling each layer in turn. With tracing on it records a span around
// each call and the allocation it caused. Args: graph path, seed,
// preparing trials, sampling trials, output path, trace (true/false).
func coldChild(args []string, _ io.Writer) error {
	if len(args) != 6 {
		return fmt.Errorf("cold wants <graph> <seed> <prep> <trials> <out> <trace>, got %q", args)
	}
	seed, err1 := strconv.ParseUint(args[1], 10, 64)
	prep, err2 := strconv.Atoi(args[2])
	trials, err3 := strconv.Atoi(args[3])
	trace, err4 := strconv.ParseBool(args[5])
	for _, err := range []error{err1, err2, err3, err4} {
		if err != nil {
			return err
		}
	}
	doc := coldDoc{Method: string(mpmb.MethodOLS), Counts: map[string]float64{}}
	// timed runs f; with tracing on it records f's span and, for a
	// non-empty alloc name, the heap allocation f caused.
	timed := func(name, alloc string, trials int, f func()) {
		if !trace {
			f()
			return
		}
		a0 := allocatedMB()
		start := time.Now()
		f()
		end := time.Now()
		doc.Spans = append(doc.Spans, childSpan{Name: name, Start: start.UnixNano(), End: end.UnixNano(), Trials: trials})
		if alloc != "" {
			doc.Counts[alloc] = allocatedMB() - a0
		}
	}

	var g *mpmb.Graph
	var err error
	timed(spanLoad, "bigraph.load_alloc_mb", 0, func() { g, err = mpmb.LoadGraph(args[0]) })
	if err != nil {
		return err
	}
	timed(spanSnapshot, "core.snapshot_alloc_mb", 0, func() { core.NewKernelBench(g, core.OSOptions{}) })
	var cands *core.Candidates
	timed(spanPrep, "", prep, func() { cands, err = core.PrepareCandidates(g, prep, seed, core.OSOptions{}) })
	if err != nil {
		return err
	}
	if trace {
		doc.Counts["core.candidates"] = float64(cands.Len())
	}
	var res *mpmb.Result
	timed(spanEstimator, "", trials, func() {
		res, err = core.OLSSamplingPhase(cands, core.OLSOptions{PrepTrials: prep, Trials: trials, Seed: seed})
	})
	if err != nil {
		return err
	}
	doc.Top = topOf(res, 5)
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(args[4], data, 0o644)
}

// allocatedMB is the cumulative heap allocation of this process.
func allocatedMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}
