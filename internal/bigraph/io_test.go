package bigraph

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"
)

func TestIORoundTrip(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(10), 1+r.Intn(10)
		b := NewBuilder(numL, numR)
		for i := 0; i < r.Intn(30); i++ {
			_ = b.AddEdge(VertexID(r.Intn(numL)), VertexID(r.Intn(numR)), r.Float64()*10, r.Float64())
		}
		g := b.Build()
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			return false
		}
		g2, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			return false
		}
		if g2.NumL() != g.NumL() || g2.NumR() != g.NumR() || g2.NumEdges() != g.NumEdges() {
			return false
		}
		for i := 0; i < g.NumEdges(); i++ {
			if g.Edge(EdgeID(i)) != g2.Edge(EdgeID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := buildFigure1(t)
	path := filepath.Join(t.TempDir(), "fig1.graph")
	if err := Save(path, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("reloaded graph has %d edges, want %d", g2.NumEdges(), g.NumEdges())
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope.graph")); err == nil {
		t.Fatal("Load succeeded on a missing file")
	}
}

func TestReadRejectsMalformedInput(t *testing.T) {
	cases := map[string]string{
		"empty":              "",
		"comments only":      "# hello\n\n",
		"bad magic":          "wrong 1 1 0\n",
		"missing header":     "0 0 1 0.5\n",
		"negative counts":    "mpmb-bigraph -1 2 0\n",
		"bad numR":           "mpmb-bigraph 1 x 0\n",
		"bad edge count":     "mpmb-bigraph 1 1 zz\n",
		"short edge line":    "mpmb-bigraph 1 1 1\n0 0 1\n",
		"bad left vertex":    "mpmb-bigraph 1 1 1\nx 0 1 0.5\n",
		"bad right vertex":   "mpmb-bigraph 1 1 1\n0 x 1 0.5\n",
		"bad weight":         "mpmb-bigraph 1 1 1\n0 0 x 0.5\n",
		"bad probability":    "mpmb-bigraph 1 1 1\n0 0 1 x\n",
		"probability > 1":    "mpmb-bigraph 1 1 1\n0 0 1 1.5\n",
		"vertex overflow":    "mpmb-bigraph 1 1 1\n5 0 1 0.5\n",
		"edge count too low": "mpmb-bigraph 1 1 0\n0 0 1 0.5\n",
		"edge count too big": "mpmb-bigraph 1 1 3\n0 0 1 0.5\n",
		"duplicate edge":     "mpmb-bigraph 1 1 2\n0 0 1 0.5\n0 0 2 0.6\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
}

// TestReadRejectsOversizedHeaders: the text parser enforces the same
// declared-edge-count discipline as ReadBinary — a header claiming more
// edges than the global limit (or than the graph can bipartitely hold)
// is rejected up front, before any header-sized allocation or edge-line
// parsing.
func TestReadRejectsOversizedHeaders(t *testing.T) {
	cases := map[string]string{
		"past global limit":      "mpmb-bigraph 16777216 16777216 8589934593\n",
		"int overflow":           "mpmb-bigraph 2 2 99999999999999999999\n",
		"past bipartite cap":     "mpmb-bigraph 2 2 5\n",
		"cap with pending edges": "mpmb-bigraph 3 3 10\n0 0 1 0.5\n",
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted %q", name, in)
		}
	}
	// At the exact capacity the header is honest and must still parse.
	ok := "mpmb-bigraph 2 2 4\n0 0 1 0.5\n0 1 1 0.5\n1 0 1 0.5\n1 1 1 0.5\n"
	g, err := Read(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("full bipartite graph rejected: %v", err)
	}
	if g.NumEdges() != 4 {
		t.Fatalf("parsed %d edges, want 4", g.NumEdges())
	}
}

func TestReadAcceptsCommentsAndBlankLines(t *testing.T) {
	in := "# a comment\n\nmpmb-bigraph 2 2 1\n# another\n0 1 2.5 0.25\n\n"
	g, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 || g.Edge(0).W != 2.5 || g.Edge(0).P != 0.25 {
		t.Fatalf("parsed graph wrong: %+v", g.Edge(0))
	}
}

func TestSaveFailsOnBadPath(t *testing.T) {
	g := buildFigure1(t)
	if err := Save(filepath.Join(t.TempDir(), "no", "such", "dir", "x.graph"), g); err == nil {
		t.Fatal("Save succeeded on an invalid path")
	}
	if _, err := os.Stat(filepath.Join(t.TempDir(), "x.graph")); err == nil {
		t.Fatal("unexpected file created")
	}
}

// TestLoadSizesEdgesFromTheFile: Load trusts a header's edge count for
// an exact preallocation only when the file is large enough to hold that
// many edge lines; either way a count that disagrees with the file is
// rejected.
func TestLoadSizesEdgesFromTheFile(t *testing.T) {
	dir := t.TempDir()
	for name, in := range map[string]string{
		"count fits the file":       "mpmb-bigraph 4 4 3\n0 0 1 0.5\n",
		"count exceeds the file":    "mpmb-bigraph 4000 4000 1000000\n0 0 1 0.5\n",
		"more lines than the count": "mpmb-bigraph 4 4 1\n0 0 1 0.5\n1 1 1 0.5\n",
	} {
		path := filepath.Join(dir, "g.graph")
		if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(path); err == nil {
			t.Errorf("%s: Load accepted %q", name, in)
		}
	}
	g := buildFigure1(t)
	for _, save := range []func(string, *Graph) error{Save, SaveBinary} {
		path := filepath.Join(dir, "fig1")
		if err := save(path, g); err != nil {
			t.Fatal(err)
		}
		got, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumEdges() != g.NumEdges() || cap(got.Edges()) != g.NumEdges() {
			t.Fatalf("loaded %d edges with capacity %d, want %d exactly", got.NumEdges(), cap(got.Edges()), g.NumEdges())
		}
	}
}
