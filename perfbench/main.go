// Command perfbench is the repository's end-to-end benchmark. It drives
// the paths users run — the mpmb-search CLI on a cold graph file, a warm
// Searcher, and the mpmb-serve daemon over HTTP — from one process,
// checks every answer, and prints the metrics as one JSON line.
//
// Run it from the repository root through the build wrapper:
//
//	bash perfbench/run.sh --workload cold_ols_400k --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// records spans around the calls into each layer (bigraph, core, the
// root mpmb package, serve, telemetry), writes them to
// .bench_build/trace-<workload>-<seed>.json and reports the per-layer
// metrics derived from them. BENCHMARK.json at the repository root lists
// the metrics; interactions.json next to this file maps each per-layer
// metric to the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// childEnv selects a child mode when the benchmark re-executes itself:
// input generation ("gen"), one traced cold query ("cold") or the host
// reference task ("ref").
const childEnv = "PERFBENCH_CHILD"

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	cli      string // path to the mpmb-search binary
	work     string // directory for scratch files and the trace output
	smoke    bool   // tiny inputs; set only by the benchmark's own tests
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if mode := os.Getenv(childEnv); mode != "" {
		if err := childMain(mode, os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for every generated input, anchor and job mix")
	fs.Float64Var(&cfg.seconds, "seconds", 25, "seconds of measured work, reference samples excluded")
	fs.IntVar(&trace, "trace", 0, "1 records layer spans and reports the per-layer metrics")
	fs.StringVar(&cfg.cli, "cli", "", "path to the mpmb-search binary the cold workload runs")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for scratch files and trace output")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	cfg.trace = trace == 1
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want one of %v)", cfg.workload, workloadNames())
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	if cfg.seconds <= 0 {
		return cfg, fmt.Errorf("-seconds must be positive")
	}
	return cfg, nil
}

// minQueries is the fewest queries a run makes, however short its
// window: a traced run needs each kind of query it rotates through.
const minQueries = 3

// runEnv is what a workload gets to run with.
type runEnv struct {
	cfg   config
	dir   string     // per-run scratch directory, removed afterwards
	tr    *tracer    // nil in an untraced run
	clock *hostClock // reference samples that scale the timing metrics
	out   io.Writer
}

func (e *runEnv) logf(format string, args ...any) {
	fmt.Fprintf(e.out, format+"\n", args...)
}

// outcome is what a workload measured. metrics holds the end-to-end
// metrics; the per-layer ones are derived from the tracer.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
}

// fail records a failed query with its reason.
func (o *outcome) fail(e *runEnv, format string, args ...any) {
	o.failed++
	e.logf("FAILED: "+format, args...)
}

func run(cfg config, out io.Writer) (rep *report, err error) {
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	clock, err := startHostClock()
	if err != nil {
		return nil, err
	}
	defer func() {
		if err2 := clock.stop(); err == nil && err2 != nil {
			rep, err = nil, err2
		}
	}()
	e := &runEnv{cfg: cfg, dir: dir, clock: clock, out: out}
	if cfg.trace {
		e.tr = newTracer()
	}
	e.logf("workload %s seed %d window %.0fs trace %v", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	o, err := workloads[cfg.workload](e)
	if err != nil {
		return nil, err
	}
	values, defs := o.metrics, endToEnd
	if cfg.trace {
		values, defs = e.tr.layerMetrics(), perLayer
		path := filepath.Join(cfg.work, fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
		if err := e.tr.write(path); err != nil {
			return nil, err
		}
		e.logf("spans written to %s", path)
	}
	rep = &report{
		Correct:   o.failed == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		rep.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no query was attempted")
	}
	return rep, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
