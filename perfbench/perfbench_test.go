package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a workload re-executes itself in a child mode.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		if err := childMain(mode, os.Args[1:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmoke runs a short, tiny-input mode of every workload, untraced
// and traced, and checks that every named metric is reported with its
// unit and that no query failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds mpmb-search and runs every workload")
	}
	cli := filepath.Join(t.TempDir(), "mpmb-search")
	build := exec.Command("go", "build", "-o", cli, "github.com/uncertain-graphs/mpmb/cmd/mpmb-search")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building mpmb-search: %v\n%s", err, out)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				var log bytes.Buffer
				cfg := config{workload: name, seed: 3, seconds: 0.3, trace: trace, cli: cli, work: t.TempDir(), smoke: true}
				rep, err := run(cfg, &log)
				if err != nil {
					t.Fatalf("run: %v\n%s", err, log.String())
				}
				if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", rep.Correct, rep.Attempted, rep.Failed, log.String())
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(rep.Metrics) != len(defs) {
					t.Errorf("%d metrics reported, want %d", len(rep.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := rep.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s = %+v, want unit %q", d.name, m, d.unit)
					}
				}
			})
		}
	}
}

// TestHostClock checks that the reference child answers samples, that
// times between two samples are scaled by the nominal reference time
// over their mean, and that the child ends when stopped.
func TestHostClock(t *testing.T) {
	h, err := startHostClock()
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := h.sample(); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range h.refs {
		if !(r > 0) {
			t.Errorf("reference sample %v, want > 0", r)
		}
	}
	if got, want := h.scale(), refNominalS/((h.refs[0]+h.refs[1])/2); got != want {
		t.Errorf("scale() = %v, want %v", got, want)
	}
	if err := h.stop(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckFlagsTamperedResult checks that the output checker rejects a
// result whose top butterfly's weight was shifted, and that a job with
// such a result counts as failed.
func TestCheckFlagsTamperedResult(t *testing.T) {
	d, err := mpmb.GenerateSynthetic(mpmb.SyntheticConfig{Seed: 4, NumL: 40, NumR: 20, NumEdges: 400})
	if err != nil {
		t.Fatal(err)
	}
	g := d.G
	opt := mpmb.Options{Method: mpmb.MethodOLS, Trials: 300, PrepTrials: 50, Seed: 9}
	res, err := mpmb.Search(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	good := topOf(res, 5)
	if err := checkTop(g, good, nil); err != nil {
		t.Fatalf("untampered result rejected: %v", err)
	}
	tampered := append([]estimate(nil), good...)
	tampered[0].Weight += 0.5
	if err := checkTop(g, tampered, nil); err == nil || !strings.Contains(err.Error(), "weight") {
		t.Fatalf("shifted weight: checkTop = %v, want a weight error", err)
	}

	spec := jobMix{trials: opt.Trials, prep: opt.PrepTrials}.global(opt.Seed)
	recs := []jobRecord{
		{spec: spec, kind: "cached", top: good},
		{spec: spec, kind: "cached", top: tampered},
	}
	o := &outcome{}
	checkJobs(&runEnv{out: io.Discard}, o, g, recs)
	if o.attempted != 2 || o.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 2 and 1", o.attempted, o.failed)
	}
}

// TestCheckTopRules covers the checker's other rules.
func TestCheckTopRules(t *testing.T) {
	d, err := mpmb.GenerateSynthetic(mpmb.SyntheticConfig{Seed: 5, NumL: 30, NumR: 15, NumEdges: 300})
	if err != nil {
		t.Fatal(err)
	}
	g := d.G
	res, err := mpmb.Search(g, mpmb.Options{Method: mpmb.MethodOS, Trials: 300, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	good := topOf(res, 5)
	if len(good) < 2 {
		t.Fatalf("want at least two estimates, got %d", len(good))
	}
	mutate := func(f func(top []estimate)) []estimate {
		top := append([]estimate(nil), good...)
		f(top)
		return top
	}
	outside := mpmb.VertexID(g.NumL() + 1)
	for name, c := range map[string]struct {
		top    []estimate
		anchor *mpmb.VertexID
	}{
		"empty":          {top: nil},
		"not a backbone": {top: mutate(func(top []estimate) { top[0].V2 = top[0].V1 })},
		"estimate > 1":   {top: mutate(func(top []estimate) { top[0].P = 1.5 })},
		"unsorted":       {top: mutate(func(top []estimate) { top[0], top[1] = top[1], top[0]; top[1].P = top[0].P + 0.1 })},
		"missing anchor": {top: good, anchor: &outside},
	} {
		if err := checkTop(g, c.top, c.anchor); err == nil {
			t.Errorf("%s: checkTop accepted it", name)
		}
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare against.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json declares exactly
// the workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	declared := func(list []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) []metricDef {
		var out []metricDef
		for _, m := range list {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := declared(b.EndToEnd); fmt.Sprint(got) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, benchmark reports %v", got, endToEnd)
	}
	if got := declared(b.PerLayer); fmt.Sprint(got) != fmt.Sprint(perLayer) {
		t.Errorf("BENCHMARK.json per_layer %v, benchmark reports %v", got, perLayer)
	}
}

// TestInteractionMap checks that interactions.json covers every
// per-layer metric and names only known metrics and workloads.
func TestInteractionMap(t *testing.T) {
	data, err := os.ReadFile("interactions.json")
	if err != nil {
		t.Fatal(err)
	}
	type effect struct {
		Metric   string `json:"metric"`
		Workload string `json:"workload"`
	}
	var entries []struct {
		Metric   string   `json:"metric"`
		Measures string   `json:"measures"`
		Moves    []effect `json:"moves"`
		NoEffect []effect `json:"no_effect"`
	}
	if err := json.Unmarshal(data, &entries); err != nil {
		t.Fatal(err)
	}
	isE2E := map[string]bool{}
	for _, d := range endToEnd {
		isE2E[d.name] = true
	}
	seen := map[string]bool{}
	for _, en := range entries {
		seen[en.Metric] = true
		if en.Measures == "" || len(en.Moves)+len(en.NoEffect) == 0 {
			t.Errorf("%s: needs what it measures and at least one predicted effect", en.Metric)
		}
		for _, ef := range append(en.Moves, en.NoEffect...) {
			if !isE2E[ef.Metric] {
				t.Errorf("%s: %q is not an end-to-end metric", en.Metric, ef.Metric)
			}
			if _, ok := workloads[ef.Workload]; !ok {
				t.Errorf("%s: %q is not a workload", en.Metric, ef.Workload)
			}
		}
	}
	for _, d := range perLayer {
		if !seen[d.name] {
			t.Errorf("per-layer metric %s has no entry", d.name)
		}
	}
	if len(entries) != len(perLayer) {
		t.Errorf("%d entries for %d per-layer metrics", len(entries), len(perLayer))
	}
}
