package bigraph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzRead hardens the text parser: arbitrary input must either parse
// into a graph that re-serializes losslessly or fail cleanly — never
// panic.
func FuzzRead(f *testing.F) {
	f.Add("mpmb-bigraph 2 3 1\n0 1 2.5 0.5\n")
	f.Add("mpmb-bigraph 0 0 0\n")
	f.Add("# comment\nmpmb-bigraph 1 1 1\n0 0 1 1\n")
	f.Add("mpmb-bigraph 1 1 2\n0 0 1 1\n")
	f.Add("garbage\n")
	f.Add("mpmb-bigraph 4294967295 1 0\n")
	// Oversized-header seeds: edge counts past the global limit, past the
	// bipartite capacity, and just inside both — the parser must reject
	// (or handle) each without allocating header-sized buffers.
	f.Add("mpmb-bigraph 2 2 8589934593\n")            // > maxTextEdges
	f.Add("mpmb-bigraph 2 2 999999999999999999999\n") // overflows int
	f.Add("mpmb-bigraph 2 2 5\n")                     // > numL*numR capacity
	f.Add("mpmb-bigraph 16777216 16777216 8589934592\n")
	f.Add("mpmb-bigraph 3 3 9\n0 0 1 1\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := Read(strings.NewReader(in))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := Write(&sb, g); err != nil {
			t.Fatalf("parsed graph failed to serialize: %v", err)
		}
		g2, err := Read(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if g2.NumL() != g.NumL() || g2.NumR() != g.NumR() || g2.NumEdges() != g.NumEdges() {
			t.Fatal("round trip changed dimensions")
		}
	})
}

// FuzzReadMatchesReference holds Read to the frozen string-based parser
// (readref_test.go): both must accept or reject the same inputs, and on
// accept build reflect.DeepEqual graphs — the byte-level field splitter,
// the vertex parser, the bulk validation and the counting-sort CSR
// included.
func FuzzReadMatchesReference(f *testing.F) {
	for _, s := range []string{
		"mpmb-bigraph 2 3 1\n0 1 2.5 0.5\n",
		"mpmb-bigraph 0 0 0\n",
		"# comment\nmpmb-bigraph 2 2 2\n  # indented comment\n1 1 1 1\n0 0 -0 0\n",
		"mpmb-bigraph 2 2 2\r\n0 1 1.5 0.25\r\n1 0 2 1\r\n",
		"mpmb-bigraph\t2 2 1\n0\t1\t1.5\t0.25\n",
		"\v\fmpmb-bigraph 1 1 1 \n 0 0 1 1\r\r\n",
		"mpmb-bigraph 2 2 1\n0\u00a01 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n0 1\u0085 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n0 1 1.5\u2003 0.25\n",
		"mpmb-bigraph 2 2 1\n0 1 1.5 0.25\xff\n",
		"\u00a0mpmb-bigraph 1 1 0\n",
		"mpmb-bigraph 2 2 1\n0 1 1.5 0.25 # trailing\n",
		"mpmb-bigraph 2 2 1\n0 1 1.5\n",
		"mpmb-bigraph 2 2 1\n2 1 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n0 4294967296 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n+0 1 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n0_0 1 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n00 0x1 1.5 0.25\n",
		"mpmb-bigraph 2 2 1\n00 01 1_5 .25\n",
		"mpmb-bigraph 2 2 1\n0 1 0x1p-2 25e-2\n",
		"mpmb-bigraph 2 2 1\n0 1 inf 0.5\n",
		"mpmb-bigraph 2 2 1\n0 1 NaN 0.5\n",
		"mpmb-bigraph 2 2 1\n0 1 1 1.0000001\n",
		"mpmb-bigraph 2 2 3\n0 1 1 0.5\n1 1 2 0.5\n0 1 3 0.5\n",
		"mpmb-bigraph 2 2 3\n0 1 1 0.5\n0 1 2 0.5\n0 1 3 0.5\n",
		"mpmb-bigraph 2 2 1\n0 1 1 0.5\n0 1 2 0.5\n",
		"mpmb-bigraph 2 2 2\n0 1 1 0.5\n",
		"mpmb-bigraph 2 2 2\n0 1 1 0.5\n0 1 1 0.5\n1 1 1 x\n",
		"mpmb-bigraph 3 3 4\n2 2 1 1\n0 2 1 1\n2 0 1 1\n0 0 1 1\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		got, err := Read(strings.NewReader(in))
		want, werr := readReference(strings.NewReader(in))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read error %v, reference error %v, on %q", err, werr, in)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("Read and the reference built different graphs from %q", in)
		}
	})
}

// FuzzReadBinary hardens the binary parser the same way.
func FuzzReadBinary(f *testing.F) {
	// Seed with a valid file and some prefixes of it.
	b := NewBuilder(2, 2)
	b.MustAddEdge(0, 1, 2.5, 0.75)
	b.MustAddEdge(1, 0, 1.5, 0.25)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, b.Build()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:10])
	f.Add([]byte("MPMBBIN1"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, in []byte) {
		g, err := ReadBinary(bytes.NewReader(in))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, g); err != nil {
			t.Fatalf("parsed graph failed to serialize: %v", err)
		}
		// A successfully parsed file must re-serialize byte-identically
		// up to its own length (the canonical encoding is unique).
		if !bytes.Equal(out.Bytes(), in[:len(out.Bytes())]) && len(in) == out.Len() {
			t.Fatal("binary round trip not canonical")
		}
	})
}
