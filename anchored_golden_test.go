package mpmb

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/core"
)

var updateAnchoredGoldens = flag.Bool("update-anchored-goldens", false, "rewrite testdata/anchored_goldens.json from the current code")

// goldenSkewed is the larger pinned graph of the anchored goldens: a
// skewed 300-edge synthetic network, big enough for the parallel
// runners to split the trials over several chunks.
func goldenSkewed(t testing.TB) *Graph {
	t.Helper()
	ds, err := GenerateSynthetic(SyntheticConfig{Seed: 11, NumL: 30, NumR: 30, NumEdges: 300, DegreeSkew: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ds.G
}

// anchoredGoldenCase is one anchored query of the golden set.
type anchoredGoldenCase struct {
	name string
	g    *Graph
	opt  Options
}

// anchoredGoldenCases lists every anchor kind × os/ols/ols-kl × Workers
// 0/3 on the pinned graphs.
func anchoredGoldenCases(t *testing.T) []anchoredGoldenCase {
	t.Helper()
	var out []anchoredGoldenCase
	graphs := []struct {
		name string
		g    *Graph
	}{{"parity", parityGraph(t)}, {"skewed", goldenSkewed(t)}}
	for _, gc := range graphs {
		g := gc.g
		e := g.Edge(0)
		queries := []struct {
			name string
			q    *Query
		}{
			{"L0", &Query{AnchorL: vptr(0)}},
			{fmt.Sprintf("R%d", g.NumR()-1), &Query{AnchorR: vptr(VertexID(g.NumR() - 1))}},
			{fmt.Sprintf("E%d-%d", e.U, e.V), &Query{AnchorEdge: &EdgeAnchor{U: e.U, V: e.V}}},
		}
		for _, qc := range queries {
			for _, m := range []Method{MethodOS, MethodOLS, MethodOLSKL} {
				for _, workers := range []int{0, 3} {
					out = append(out, anchoredGoldenCase{
						name: fmt.Sprintf("%s/%s/%s/w%d", gc.name, qc.name, m, workers),
						g:    g,
						opt:  Options{Method: m, Trials: 600, PrepTrials: 40, Seed: 29, Mu: 0.05, Workers: workers, Query: qc.q},
					})
				}
			}
		}
	}
	return out
}

// anchoredGoldenResults runs the golden cases and returns their Results
// keyed by case name.
func anchoredGoldenResults(t *testing.T) map[string]*Result {
	t.Helper()
	out := make(map[string]*Result)
	for _, c := range anchoredGoldenCases(t) {
		res, err := Search(c.g, c.opt)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		out[c.name] = res
	}
	return out
}

// TestAnchoredRunPaths: every golden anchored query gives the same
// Result through an explicit in-process executor and when cut at any of
// several points — in the preparing or the sampling phase — and resumed
// from its checkpoint on the other worker count.
func TestAnchoredRunPaths(t *testing.T) {
	for _, c := range anchoredGoldenCases(t) {
		want, err := Search(c.g, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		opt := c.opt
		opt.Executor = &core.LocalExecutor{Workers: 2}
		got, err := Search(c.g, opt)
		if err != nil {
			t.Fatalf("%s executor: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: executor Result differs from Search", c.name)
		}
		for _, n := range []int64{0, 20, 45, 300} {
			part, err := NewSearcher(c.g).run(c.opt, cutAfter(n))
			if err != nil {
				t.Fatal(err)
			}
			if part.Partial {
				if part.Checkpoint == nil {
					t.Fatalf("%s cut after %d polls: partial without a checkpoint", c.name, n)
				}
				resume := c.opt
				resume.Resume, resume.Workers = part.Checkpoint, 3-c.opt.Workers
				if part, err = Search(c.g, resume); err != nil {
					t.Fatalf("%s cut after %d polls: resume: %v", c.name, n, err)
				}
			}
			if !reflect.DeepEqual(part, want) {
				t.Fatalf("%s cut after %d polls: resumed Result differs from the uncut run", c.name, n)
			}
		}
	}
}

// TestAnchoredGoldens pins every anchored Result to the one recorded
// before anchored queries moved onto the shared trial loop: the move
// changes no draw, so each Result must match bit for bit. Regenerate
// with -update-anchored-goldens only when a change deliberately alters
// anchored draws.
func TestAnchoredGoldens(t *testing.T) {
	got, err := json.MarshalIndent(anchoredGoldenResults(t), "", " ")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "anchored_goldens.json")
	if *updateAnchoredGoldens {
		if err := os.WriteFile(path, append(got, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(want), got) {
		var wantM, gotM map[string]json.RawMessage
		if err := json.Unmarshal(want, &wantM); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(got, &gotM); err != nil {
			t.Fatal(err)
		}
		for k, w := range wantM {
			if !bytes.Equal(w, gotM[k]) {
				t.Errorf("%s: Result differs from the golden\n got: %s\nwant: %s", k, gotM[k], w)
			}
		}
		if len(wantM) != len(gotM) {
			t.Errorf("golden has %d cases, run has %d", len(wantM), len(gotM))
		}
	}
}
