package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
)

// tinyPerfCorpus keeps RunPerfCorpus tests fast: each timed row still
// runs ~1s of benchmark wall clock, so the corpus only controls per-trial
// cost, not total test time — small keeps the trial counts sane.
var tinyPerfCorpus = PerfCorpus{
	NumL: 60, NumR: 12, NumEdges: 300,
	PLo: 0.2, PHi: 0.8, Seed: 7,
}

// TestPerfCorpusBuildDeterministic: the pinned corpus must be a pure
// function of its fields — the whole point of the trajectory is that two
// commits measured the same workload.
func TestPerfCorpusBuildDeterministic(t *testing.T) {
	g1 := tinyPerfCorpus.Build()
	g2 := tinyPerfCorpus.Build()
	if g1.NumEdges() != tinyPerfCorpus.NumEdges {
		t.Fatalf("built %d edges, want %d", g1.NumEdges(), tinyPerfCorpus.NumEdges)
	}
	for id := 0; id < g1.NumEdges(); id++ {
		e1, e2 := g1.Edge(bigraph.EdgeID(id)), g2.Edge(bigraph.EdgeID(id))
		if e1 != e2 {
			t.Fatalf("edge %d differs between builds: %+v vs %+v", id, e1, e2)
		}
		if e1.P < tinyPerfCorpus.PLo || e1.P > tinyPerfCorpus.PHi {
			t.Fatalf("edge %d probability %v outside [%v,%v]", id, e1.P, tinyPerfCorpus.PLo, tinyPerfCorpus.PHi)
		}
		// Weights sit on the half-integer grid so exact ties occur.
		if w := e1.W * 2; w != math.Trunc(w) || e1.W < 0.5 || e1.W > 5 {
			t.Fatalf("edge %d weight %v not on the 0.5..5 half-integer grid", id, e1.W)
		}
	}
}

// TestRunPerfCorpus runs the harness for real (one round, tiny corpus)
// and checks the report invariants the trajectory relies on.
func TestRunPerfCorpus(t *testing.T) {
	rep, err := RunPerfCorpus(tinyPerfCorpus, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Corpus != tinyPerfCorpus {
		t.Fatalf("report corpus %+v, want %+v", rep.Corpus, tinyPerfCorpus)
	}
	kern, seed := rep.find("os_kernel"), rep.find("os_seed_baseline")
	if kern == nil || seed == nil {
		t.Fatalf("missing os rows in %+v", rep.Entries)
	}
	for _, e := range []*PerfEntry{kern, seed} {
		if e.NsPerTrial <= 0 || e.TrialsTimed <= 0 {
			t.Fatalf("row %s not measured: %+v", e.Name, e)
		}
	}
	// The kernel row's scan accounting must partition the snapshot.
	if got := kern.EdgesScannedPerTrial + kern.EdgesPrunedPerTrial; got != float64(tinyPerfCorpus.NumEdges) {
		t.Fatalf("scanned %v + pruned %v = %v, want %d edges",
			kern.EdgesScannedPerTrial, kern.EdgesPrunedPerTrial, got, tinyPerfCorpus.NumEdges)
	}
	// Zero-allocation steady state is separately pinned by the regression
	// tests in internal/core; here just require the report to agree.
	if kern.AllocsPerTrial >= 1 {
		t.Fatalf("kernel row allocates %v per trial, want < 1", kern.AllocsPerTrial)
	}
	if want := seed.NsPerTrial / kern.NsPerTrial; rep.SpeedupOSKernelVsSeed != want {
		t.Fatalf("speedup %v, want seed/kernel = %v", rep.SpeedupOSKernelVsSeed, want)
	}
	var haveParallel, haveOpt bool
	for i := range rep.Entries {
		e := &rep.Entries[i]
		if e.Name == "os_parallel" {
			haveParallel = true
			if e.Workers != 2 {
				t.Fatalf("os_parallel row records %d workers, want the pinned 2", e.Workers)
			}
			// The probe-backed parallel row must report the same scan
			// partition as the sequential kernel row.
			if got := e.EdgesScannedPerTrial + e.EdgesPrunedPerTrial; got != float64(tinyPerfCorpus.NumEdges) {
				t.Fatalf("parallel scanned %v + pruned %v = %v, want %d edges",
					e.EdgesScannedPerTrial, e.EdgesPrunedPerTrial, got, tinyPerfCorpus.NumEdges)
			}
		}
		if e.Name == "optimized_estimator" {
			haveOpt = true
		}
	}
	if !haveParallel || !haveOpt {
		t.Fatalf("missing parallel/estimator rows in %+v", rep.Entries)
	}
	// Prefix fallbacks are a per-trial probability; the calibration
	// targets ≤ 1/(K+1), so anything near 1 means the counter is wired
	// wrong.
	for _, e := range []*PerfEntry{kern, seed} {
		if e.PrefixFallbacksPerTrial < 0 || e.PrefixFallbacksPerTrial > 0.5 {
			t.Fatalf("row %s prefix fallbacks per trial = %v, want a small probability",
				e.Name, e.PrefixFallbacksPerTrial)
		}
	}

	// The JSON document must round-trip with the headline fields intact.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back PerfReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Corpus != rep.Corpus || back.SpeedupOSKernelVsSeed != rep.SpeedupOSKernelVsSeed ||
		len(back.Entries) != len(rep.Entries) {
		t.Fatalf("JSON round-trip mismatch:\n%s", buf.String())
	}

	// And the text table must name every row plus the headline ratio.
	var tbl bytes.Buffer
	PrintPerf(&tbl, rep)
	for _, e := range rep.Entries {
		if !strings.Contains(tbl.String(), e.Name) {
			t.Fatalf("table missing row %s:\n%s", e.Name, tbl.String())
		}
	}
	if !strings.Contains(tbl.String(), "speedup vs seed baseline") {
		t.Fatalf("table missing speedup line:\n%s", tbl.String())
	}
}

// TestPerfCorpusUniformWeights pins the secondary corpus's weight kind:
// deterministic builds, continuous weights in [0.5, 10) that do NOT sit
// on the half-integer grid (that's the point — exact ties become
// measure-zero).
func TestPerfCorpusUniformWeights(t *testing.T) {
	c := tinyPerfCorpus
	c.WeightKind = WeightUniform
	g1, g2 := c.Build(), c.Build()
	offGrid := 0
	for id := 0; id < g1.NumEdges(); id++ {
		e1, e2 := g1.Edge(bigraph.EdgeID(id)), g2.Edge(bigraph.EdgeID(id))
		if e1 != e2 {
			t.Fatalf("edge %d differs between builds: %+v vs %+v", id, e1, e2)
		}
		if e1.W < 0.5 || e1.W >= 10 {
			t.Fatalf("edge %d weight %v outside [0.5, 10)", id, e1.W)
		}
		if w := e1.W * 2; w != math.Trunc(w) {
			offGrid++
		}
	}
	if offGrid == 0 {
		t.Fatal("uniform corpus produced only half-grid weights")
	}
}

// TestPrintPerfSecondaryBlock renders a synthetic report with a secondary
// corpus attached and requires both tables plus both speedup lines — the
// measurement itself is covered by TestRunPerfCorpus, so this one stays
// cheap.
func TestPrintPerfSecondaryBlock(t *testing.T) {
	sec := SecondaryPerfCorpus
	rep := &PerfReport{
		Corpus:                         tinyPerfCorpus,
		Entries:                        []PerfEntry{{Name: "os_kernel", NsPerTrial: 10}},
		SpeedupOSKernelVsSeed:          2,
		SecondaryCorpus:                &sec,
		SecondaryEntries:               []PerfEntry{{Name: "os_kernel", NsPerTrial: 20}},
		SecondarySpeedupOSKernelVsSeed: 3,
	}
	var tbl bytes.Buffer
	PrintPerf(&tbl, rep)
	out := tbl.String()
	for _, want := range []string{"pinned corpus", "secondary corpus", "w=uniform", "w=halfgrid", "fallback"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "speedup vs seed baseline") != 2 {
		t.Fatalf("expected two speedup lines:\n%s", out)
	}
}
