package bigraph

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func buildFigure1(t testing.TB) *Graph {
	t.Helper()
	b := NewBuilder(2, 3)
	b.MustAddEdge(0, 0, 2, 0.5)
	b.MustAddEdge(0, 1, 2, 0.6)
	b.MustAddEdge(0, 2, 1, 0.8)
	b.MustAddEdge(1, 0, 3, 0.3)
	b.MustAddEdge(1, 1, 3, 0.4)
	b.MustAddEdge(1, 2, 1, 0.7)
	return b.Build()
}

func TestBuilderValidation(t *testing.T) {
	b := NewBuilder(2, 2)
	cases := []struct {
		u, v VertexID
		w, p float64
	}{
		{2, 0, 1, 0.5},           // left out of range
		{0, 2, 1, 0.5},           // right out of range
		{0, 0, math.NaN(), 0.5},  // NaN weight
		{0, 0, math.Inf(1), 0.5}, // infinite weight
		{0, 0, 1, -0.1},          // negative probability
		{0, 0, 1, 1.1},           // probability > 1
		{0, 0, 1, math.NaN()},    // NaN probability
	}
	for _, c := range cases {
		if err := b.AddEdge(c.u, c.v, c.w, c.p); err == nil {
			t.Errorf("AddEdge(%d,%d,%v,%v) accepted invalid input", c.u, c.v, c.w, c.p)
		}
	}
	if err := b.AddEdge(0, 0, 1, 0.5); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(0, 0, 2, 0.7); err == nil {
		t.Error("duplicate edge accepted")
	}
}

func TestCSRAdjacencyConsistency(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(8), 1+r.Intn(8)
		b := NewBuilder(numL, numR)
		for i := 0; i < 20; i++ {
			u, v := VertexID(r.Intn(numL)), VertexID(r.Intn(numR))
			_ = b.AddEdge(u, v, r.Float64()*5, r.Float64()) // dups rejected silently
		}
		g := b.Build()
		// Every edge appears exactly once in each side's adjacency;
		// degrees sum to |E| on both sides.
		sumL, sumR := 0, 0
		for u := 0; u < numL; u++ {
			row := g.NeighborsL(VertexID(u))
			sumL += len(row)
			for i, h := range row {
				e := g.Edge(h.E)
				if e.U != VertexID(u) || e.V != h.To {
					return false
				}
				if i > 0 && row[i-1].To >= h.To {
					return false // rows must be strictly sorted
				}
			}
		}
		for v := 0; v < numR; v++ {
			row := g.NeighborsR(VertexID(v))
			sumR += len(row)
			for i, h := range row {
				e := g.Edge(h.E)
				if e.V != VertexID(v) || e.U != h.To {
					return false
				}
				if i > 0 && row[i-1].To >= h.To {
					return false
				}
			}
		}
		return sumL == g.NumEdges() && sumR == g.NumEdges()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFindEdge(t *testing.T) {
	g := buildFigure1(t)
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(EdgeID(id))
		got, ok := g.FindEdge(e.U, e.V)
		if !ok || got != EdgeID(id) {
			t.Fatalf("FindEdge(%d,%d) = %d,%v; want %d,true", e.U, e.V, got, ok, id)
		}
	}
	if _, ok := g.FindEdge(0, 5); ok {
		t.Fatal("FindEdge found a right vertex out of range")
	}
	if _, ok := g.FindEdge(7, 0); ok {
		t.Fatal("FindEdge found a left vertex out of range")
	}
	// Missing pair within range.
	b := NewBuilder(2, 2)
	b.MustAddEdge(0, 0, 1, 1)
	g2 := b.Build()
	if _, ok := g2.FindEdge(1, 1); ok {
		t.Fatal("FindEdge found a nonexistent edge")
	}
}

func TestDegreesAndExpectedDegrees(t *testing.T) {
	g := buildFigure1(t)
	if g.DegreeL(0) != 3 || g.DegreeL(1) != 3 {
		t.Fatalf("left degrees = %d,%d, want 3,3", g.DegreeL(0), g.DegreeL(1))
	}
	for v := 0; v < 3; v++ {
		if g.DegreeR(VertexID(v)) != 2 {
			t.Fatalf("right degree of %d = %d, want 2", v, g.DegreeR(VertexID(v)))
		}
	}
	// d̄(u1) = 0.5+0.6+0.8 = 1.9.
	if got := g.ExpectedDegreeL(0); math.Abs(got-1.9) > 1e-12 {
		t.Fatalf("expected degree of u1 = %v, want 1.9", got)
	}
	// d̄(v1) = 0.5+0.3 = 0.8.
	if got := g.ExpectedDegreeR(0); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("expected degree of v1 = %v, want 0.8", got)
	}
	// E[deg²(v1)] = Var + mean² = (0.25+0.21) + 0.64 = 1.1.
	if got := g.ExpectedSquaredDegreeR(0); math.Abs(got-1.1) > 1e-12 {
		t.Fatalf("expected squared degree of v1 = %v, want 1.1", got)
	}
	// Same quantity on the left: Var = .25+.24+.16=0.65, mean²=3.61.
	if got := g.ExpectedSquaredDegreeL(0); math.Abs(got-4.26) > 1e-12 {
		t.Fatalf("expected squared degree of u1 = %v, want 4.26", got)
	}
}

func TestEdgesByWeightDescAndTopWeightSum(t *testing.T) {
	g := buildFigure1(t)
	order := g.EdgesByWeightDesc()
	if len(order) != 6 {
		t.Fatalf("order has %d edges, want 6", len(order))
	}
	for i := 1; i < len(order); i++ {
		if g.Edge(order[i]).W > g.Edge(order[i-1]).W {
			t.Fatalf("weights not descending at %d", i)
		}
	}
	// Top-3 weights are 3, 3, 2.
	if got := g.TopWeightSum(3); got != 8 {
		t.Fatalf("TopWeightSum(3) = %v, want 8", got)
	}
	if got := g.TopWeightSum(100); math.Abs(got-12) > 1e-12 {
		t.Fatalf("TopWeightSum(100) = %v, want total 12", got)
	}
	if got := g.TopWeightSum(0); got != 0 {
		t.Fatalf("TopWeightSum(0) = %v, want 0", got)
	}
}

func TestTopWeightSumProperty(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(30)
		b := NewBuilder(n, n)
		ws := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			w := math.Floor(r.Float64()*20) / 2
			ws = append(ws, w)
			b.MustAddEdge(VertexID(i), VertexID(i), w, 0.5)
		}
		g := b.Build()
		k := 1 + r.Intn(5)
		// Reference: sort and take k largest.
		sorted := append([]float64(nil), ws...)
		for i := range sorted {
			for j := i + 1; j < len(sorted); j++ {
				if sorted[j] > sorted[i] {
					sorted[i], sorted[j] = sorted[j], sorted[i]
				}
			}
		}
		want := 0.0
		for i := 0; i < k && i < len(sorted); i++ {
			want += sorted[i]
		}
		return math.Abs(g.TopWeightSum(k)-want) < 1e-9
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityOrderIsDegreeMonotone(t *testing.T) {
	g := buildFigure1(t)
	order := g.PriorityOrder()
	if len(order) != 5 {
		t.Fatalf("order covers %d vertices, want 5", len(order))
	}
	// Ranks must be a permutation of 0..4.
	seen := make([]bool, 5)
	for _, rk := range order {
		if rk < 0 || rk >= 5 || seen[rk] {
			t.Fatalf("order is not a permutation: %v", order)
		}
		seen[rk] = true
	}
	// Degree-3 left vertices must outrank degree-2 right vertices.
	for u := 0; u < 2; u++ {
		for v := 0; v < 3; v++ {
			if order[g.GlobalID(SideL, VertexID(u))] <= order[g.GlobalID(SideR, VertexID(v))] {
				t.Fatalf("degree-3 u%d does not outrank degree-2 v%d", u+1, v+1)
			}
		}
	}
}

func TestGlobalIDRoundTrip(t *testing.T) {
	g := buildFigure1(t)
	for gid := 0; gid < g.NumVertices(); gid++ {
		side, v := g.SplitGlobalID(gid)
		if got := g.GlobalID(side, v); got != gid {
			t.Fatalf("GlobalID round trip failed for %d: got %d", gid, got)
		}
	}
}

func TestMaxWeightAndExpectedEdges(t *testing.T) {
	g := buildFigure1(t)
	if g.MaxWeight() != 3 {
		t.Fatalf("MaxWeight = %v, want 3", g.MaxWeight())
	}
	if got := g.TotalExpectedEdges(); math.Abs(got-3.3) > 1e-12 {
		t.Fatalf("TotalExpectedEdges = %v, want 3.3", got)
	}
	empty := NewBuilder(1, 1).Build()
	if empty.MaxWeight() != 0 {
		t.Fatalf("empty MaxWeight = %v, want 0", empty.MaxWeight())
	}
}

func TestFromEdges(t *testing.T) {
	g, err := FromEdges(2, 2, []Edge{{U: 0, V: 0, W: 1, P: 0.5}, {U: 1, V: 1, W: 2, P: 0.9}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
	if _, err := FromEdges(1, 1, []Edge{{U: 5, V: 0, W: 1, P: 0.5}}); err == nil {
		t.Fatal("FromEdges accepted an out-of-range edge")
	}
}

// TestEdgesByWeightDescMatchesComparator checks the radix order against
// the closure comparator it replaced (readref_test.go) on negative
// weights, ±0, heavy ties and the empty graph.
func TestEdgesByWeightDescMatchesComparator(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := 1+r.Intn(12), 1+r.Intn(12)
		b := NewBuilder(numL, numR)
		for i := 0; i < r.Intn(numL*numR+1); i++ {
			var w float64
			switch r.Intn(5) {
			case 0:
				w = math.Floor(r.Float64()*10) / 2 // ratings-style half-steps
			case 1:
				w = -math.Floor(r.Float64()*10) / 2
			case 2:
				w = math.Copysign(0, float64(r.Intn(2)*2-1)) // ±0
			case 3:
				w = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
			default:
				w = []float64{math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
					-math.SmallestNonzeroFloat64}[r.Intn(4)]
			}
			_ = b.AddEdge(VertexID(r.Intn(numL)), VertexID(r.Intn(numR)), w, r.Float64())
		}
		g := b.Build()
		return reflect.DeepEqual(g.EdgesByWeightDesc(), edgesByWeightDescReference(g))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if got := NewBuilder(3, 3).Build().EdgesByWeightDesc(); len(got) != 0 {
		t.Fatalf("empty graph order = %v", got)
	}
}

// TestNewGraphMatchesSortedCSR checks the counting-sort CSR build against
// the per-row sort build it replaced, on edges in random insertion order.
func TestNewGraphMatchesSortedCSR(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		numL, numR := r.Intn(15), r.Intn(15)
		var edges []Edge
		for _, k := range r.Perm(numL * numR) {
			if r.Intn(3) == 0 {
				edges = append(edges, Edge{U: VertexID(k / numR), V: VertexID(k % numR), W: r.Float64(), P: r.Float64()})
			}
		}
		g, err := FromEdges(numL, numR, edges)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(g, newGraphReference(numL, numR, append(make([]Edge, 0, len(edges)), edges...)))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadErrorsNameThePair: the loaders that skip the Builder must
// still reject duplicates and invalid edges with the offending pair in
// the message — for duplicates, the pair an edge-by-edge check meets
// first.
func TestBulkLoadErrorsNameThePair(t *testing.T) {
	edges := []Edge{{0, 1, 1, 0.5}, {2, 0, 1, 0.5}, {1, 1, 1, 0.5}, {2, 0, 2, 0.5}, {0, 1, 3, 0.5}}
	_, err := FromEdges(3, 2, edges)
	if err == nil || !strings.Contains(err.Error(), "duplicate edge (2,0): edges 1 and 3") {
		t.Fatalf("FromEdges duplicate error = %v", err)
	}
	in := "mpmb-bigraph 3 2 5\n0 1 1 0.5\n2 0 1 0.5\n1 1 1 0.5\n2 0 2 0.5\n0 1 3 0.5\n"
	if _, err := Read(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "duplicate edge (2,0)") {
		t.Fatalf("Read duplicate error = %v", err)
	}
	g := buildFigure1(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	copy(data[8+16+edgeRecordSize:], data[8+16:8+16+8]) // edge 1 := edge 0's pair
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
	if _, err := ReadBinary(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "(0,0)") {
		t.Fatalf("ReadBinary duplicate error = %v", err)
	}
	if _, err := FromEdges(2, 2, []Edge{{0, 0, 1, 0.5}, {1, 1, 1, 1.5}}); err == nil || !strings.Contains(err.Error(), "edge (1,1)") {
		t.Fatalf("FromEdges probability error = %v", err)
	}
	if _, err := Read(strings.NewReader("mpmb-bigraph 2 2 1\n1 1 NaN 0.5\n")); err == nil || !strings.Contains(err.Error(), "edge (1,1)") {
		t.Fatalf("Read weight error = %v", err)
	}
}
