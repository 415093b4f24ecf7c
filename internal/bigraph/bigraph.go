// Package bigraph implements the uncertain bipartite weighted network that
// every MPMB algorithm in this repository operates on.
//
// A graph G = (V=(L,R), E, p, w) has two disjoint vertex partitions L and
// R, and every edge (u, v) with u ∈ L, v ∈ R carries a weight w(e) ∈ ℝ and
// an existence probability p(e) ∈ [0, 1] (Definition 1 in the paper).
// Vertices on each side are identified by dense indices 0..|L|-1 and
// 0..|R|-1; the two index spaces are independent.
//
// The package provides:
//
//   - a Builder for incremental, validated construction;
//   - an immutable Graph with CSR adjacency on both sides, so wedge
//     (angle) generation can walk neighbourhoods without allocation;
//   - degree statistics: plain, expected (Σp), and expected-squared
//     degrees, which drive the complexity bounds of Lemmas IV.1 and V.1;
//   - the global vertex-priority order used by the MC-VP baseline;
//   - edge ordering by weight, used by Ordering Sampling;
//   - induced subgraph extraction for the scalability experiment (Fig. 9);
//   - a plain-text interchange format (io.go).
package bigraph

import (
	"fmt"
	"math"
	"sort"
)

// VertexID indexes a vertex within its own partition (L or R).
type VertexID = uint32

// EdgeID indexes an edge in Graph.Edges order.
type EdgeID = uint32

// Edge is a single uncertain weighted edge between U ∈ L and V ∈ R.
type Edge struct {
	U VertexID // left endpoint
	V VertexID // right endpoint
	W float64  // weight
	P float64  // existence probability in [0, 1]
}

// Half is one adjacency entry: the opposite endpoint and the edge it
// belongs to.
type Half struct {
	To VertexID
	E  EdgeID
}

// Graph is an immutable uncertain bipartite weighted network.
// Construct one with a Builder, Load, or FromEdges.
type Graph struct {
	numL, numR int
	edges      []Edge

	lOff []int32 // CSR offsets for the L side, len numL+1
	lAdj []Half
	rOff []int32 // CSR offsets for the R side, len numR+1
	rAdj []Half
}

// Builder accumulates edges and produces a Graph. The zero value is not
// usable; call NewBuilder.
type Builder struct {
	numL, numR int
	edges      []Edge
	seen       map[uint64]struct{}
}

// NewBuilder returns a Builder for a graph with the given partition sizes.
func NewBuilder(numL, numR int) *Builder {
	return &Builder{
		numL: numL,
		numR: numR,
		seen: make(map[uint64]struct{}),
	}
}

func pairKey(u, v VertexID) uint64 { return uint64(u)<<32 | uint64(v) }

// AddEdge appends the edge (u, v) with weight w and probability p.
// It returns an error if either endpoint is out of range, p is outside
// [0, 1], w is NaN or infinite, or the pair (u, v) was already added.
func (b *Builder) AddEdge(u, v VertexID, w, p float64) error {
	if err := checkEdge(b.numL, b.numR, u, v, w, p); err != nil {
		return err
	}
	k := pairKey(u, v)
	if _, dup := b.seen[k]; dup {
		return fmt.Errorf("bigraph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[k] = struct{}{}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w, P: p})
	return nil
}

// checkEdge applies the per-edge checks every constructor shares: both
// endpoints in range, a finite weight and a probability in [0, 1].
// Duplicate pairs are caught by the Builder's map or, for bulk loads, by
// newGraph.
func checkEdge(numL, numR int, u, v VertexID, w, p float64) error {
	if int(u) >= numL {
		return fmt.Errorf("bigraph: left vertex %d out of range [0,%d)", u, numL)
	}
	if int(v) >= numR {
		return fmt.Errorf("bigraph: right vertex %d out of range [0,%d)", v, numR)
	}
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("bigraph: edge (%d,%d) has non-finite weight %v", u, v, w)
	}
	if math.IsNaN(p) || p < 0 || p > 1 {
		return fmt.Errorf("bigraph: edge (%d,%d) has probability %v outside [0,1]", u, v, p)
	}
	return nil
}

// MustAddEdge is AddEdge that panics on error; intended for tests and
// hand-written example graphs.
func (b *Builder) MustAddEdge(u, v VertexID, w, p float64) {
	if err := b.AddEdge(u, v, w, p); err != nil {
		panic(err)
	}
}

// NumEdges reports how many edges have been added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build finalizes the graph. The Builder remains usable (further AddEdge
// calls affect only future Build results).
func (b *Builder) Build() *Graph {
	edges := make([]Edge, len(b.edges))
	copy(edges, b.edges)
	g, _ := newGraph(b.numL, b.numR, edges) // AddEdge already refused duplicates
	return g
}

// FromEdges constructs a graph directly from an edge slice, applying the
// same validation as Builder.AddEdge. The slice is copied.
func FromEdges(numL, numR int, edges []Edge) (*Graph, error) {
	for _, e := range edges {
		if err := checkEdge(numL, numR, e.U, e.V, e.W, e.P); err != nil {
			return nil, err
		}
	}
	return newGraph(numL, numR, append(make([]Edge, 0, len(edges)), edges...))
}

// newGraph builds the CSR indexes; edges is owned by the new Graph and
// must already pass checkEdge. Both sides come out of counting-sort
// scatters, so every adjacency row is sorted by opposite endpoint (FindEdge
// binary-searches it, and iteration order does not depend on insertion
// order) without a comparison sort. A duplicate pair lands next to its
// twin in its left row; newGraph rejects it there, naming the pair whose
// second copy comes first in edges, so no dedup map is needed.
func newGraph(numL, numR int, edges []Edge) (*Graph, error) {
	g := &Graph{
		numL:  numL,
		numR:  numR,
		edges: edges,
		lOff:  make([]int32, numL+1),
		rOff:  make([]int32, numR+1),
		lAdj:  make([]Half, len(edges)),
		rAdj:  make([]Half, len(edges)),
	}
	for _, e := range edges {
		g.lOff[e.U+1]++
		g.rOff[e.V+1]++
	}
	for i := 0; i < numL; i++ {
		g.lOff[i+1] += g.lOff[i]
	}
	for i := 0; i < numR; i++ {
		g.rOff[i+1] += g.rOff[i]
	}
	lNext := make([]int32, numL)
	rNext := make([]int32, numR)
	// Pass 1 groups the edges by right endpoint in id order (rAdj is
	// scratch here). Pass 2 walks those groups in right-vertex order, so
	// each left row fills in ascending V, ties by ascending id.
	copy(rNext, g.rOff[:numR])
	for id, e := range edges {
		g.rAdj[rNext[e.V]] = Half{To: e.U, E: EdgeID(id)}
		rNext[e.V]++
	}
	copy(lNext, g.lOff[:numL])
	for v := 0; v < numR; v++ {
		for _, h := range g.rAdj[g.rOff[v]:g.rOff[v+1]] {
			g.lAdj[lNext[h.To]] = Half{To: VertexID(v), E: h.E}
			lNext[h.To]++
		}
	}
	if err := g.duplicateError(); err != nil {
		return nil, err
	}
	// Pass 3 walks the sorted left rows in left-vertex order, so each
	// right row fills in ascending U.
	copy(rNext, g.rOff[:numR])
	for u := 0; u < numL; u++ {
		for _, h := range g.lAdj[g.lOff[u]:g.lOff[u+1]] {
			g.rAdj[rNext[h.To]] = Half{To: VertexID(u), E: h.E}
			rNext[h.To]++
		}
	}
	return g, nil
}

// duplicateError reports the duplicate pair whose second copy has the
// smallest edge id — the one an edge-by-edge dedup would have met first —
// or nil. The left rows must be sorted with ties by ascending id.
func (g *Graph) duplicateError() error {
	first, second := EdgeID(0), EdgeID(math.MaxUint32) // no id reaches MaxUint32: offsets are int32
	for u := 0; u < g.numL; u++ {
		row := g.lAdj[g.lOff[u]:g.lOff[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i].To == row[i-1].To && row[i].E < second {
				first, second = row[i-1].E, row[i].E
			}
		}
	}
	if second == math.MaxUint32 {
		return nil
	}
	e := g.edges[second]
	return fmt.Errorf("bigraph: duplicate edge (%d,%d): edges %d and %d", e.U, e.V, first, second)
}

// FindEdge returns the id of the edge (u, v) if it exists in the backbone
// graph. It binary-searches the shorter endpoint's adjacency row.
func (g *Graph) FindEdge(u, v VertexID) (EdgeID, bool) {
	if int(u) >= g.numL || int(v) >= g.numR {
		return 0, false
	}
	var row []Half
	var want VertexID
	if g.DegreeL(u) <= g.DegreeR(v) {
		row, want = g.NeighborsL(u), v
	} else {
		row, want = g.NeighborsR(v), u
	}
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid].To < want {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(row) && row[lo].To == want {
		return row[lo].E, true
	}
	return 0, false
}

// NumL returns |L|.
func (g *Graph) NumL() int { return g.numL }

// NumR returns |R|.
func (g *Graph) NumR() int { return g.numR }

// NumEdges returns |E|.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns the edge with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the underlying edge slice. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// NeighborsL returns the adjacency list of left vertex u. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) NeighborsL(u VertexID) []Half {
	return g.lAdj[g.lOff[u]:g.lOff[u+1]]
}

// NeighborsR returns the adjacency list of right vertex v. The returned
// slice aliases internal storage and must not be modified.
func (g *Graph) NeighborsR(v VertexID) []Half {
	return g.rAdj[g.rOff[v]:g.rOff[v+1]]
}

// DegreeL returns deg(u) for u ∈ L.
func (g *Graph) DegreeL(u VertexID) int { return int(g.lOff[u+1] - g.lOff[u]) }

// DegreeR returns deg(v) for v ∈ R.
func (g *Graph) DegreeR(v VertexID) int { return int(g.rOff[v+1] - g.rOff[v]) }

// ExpectedDegreeL returns d̄(u) = Σ_{e=(u,·)} p(e), the expected degree of
// left vertex u over possible worlds.
func (g *Graph) ExpectedDegreeL(u VertexID) float64 {
	s := 0.0
	for _, h := range g.NeighborsL(u) {
		s += g.edges[h.E].P
	}
	return s
}

// ExpectedDegreeR returns d̄(v) for v ∈ R.
func (g *Graph) ExpectedDegreeR(v VertexID) float64 {
	s := 0.0
	for _, h := range g.NeighborsR(v) {
		s += g.edges[h.E].P
	}
	return s
}

// ExpectedSquaredDegreeL returns E[deg(u)²] for left vertex u, where
// deg(u) is the Binomial-like sum of independent edge indicators:
// E[d²] = Var + (E[d])² = Σ p(1-p) + (Σ p)². This quantity appears in the
// per-trial complexity of Ordering Sampling (Lemma V.1).
func (g *Graph) ExpectedSquaredDegreeL(u VertexID) float64 {
	mean, vr := 0.0, 0.0
	for _, h := range g.NeighborsL(u) {
		p := g.edges[h.E].P
		mean += p
		vr += p * (1 - p)
	}
	return vr + mean*mean
}

// ExpectedSquaredDegreeR returns E[deg(v)²] for right vertex v.
func (g *Graph) ExpectedSquaredDegreeR(v VertexID) float64 {
	mean, vr := 0.0, 0.0
	for _, h := range g.NeighborsR(v) {
		p := g.edges[h.E].P
		mean += p
		vr += p * (1 - p)
	}
	return vr + mean*mean
}

// EdgesByWeightDesc returns edge ids sorted by descending weight, breaking
// ties by ascending id so the order is deterministic. This is the edge
// ordering of Algorithm 2 line 1.
func (g *Graph) EdgesByWeightDesc() []EdgeID {
	n := len(g.edges)
	order, _ := SortByWeightDesc(g, make([]EdgeID, n), make([]EdgeID, n), make([]uint64, n), make([]uint64, n))
	return order
}

// SortByWeightDesc computes the EdgesByWeightDesc order in caller-owned
// storage, so a caller that needs arrays of the same shapes afterwards
// can reuse the sort's scratch for them. ids, spare, keys and spareKeys
// must each have length g.NumEdges(); all four are overwritten. It
// returns the order, which is ids or spare, and the other one as free.
//
// The sort is a stable least-significant-digit radix sort on 11-bit
// digits (six passes; 8-bit digits need eight, and 16-bit ones scatter
// into too many buckets at once to pay) of a 64-bit key per edge that
// orders like descending weight: the weight's IEEE bits as they are for
// negative weights, and with every bit but the sign bit flipped
// otherwise. −0 is folded into +0 first because the comparator treats
// them as equal, and stability over the initial ascending ids breaks ties
// by ascending id. Keys are taken relative to the smallest, and a digit
// every key shares splits nothing, so its pass is skipped: weights within
// a narrow range skip the top digits, and half-step rating weights share
// all but two.
func SortByWeightDesc(g *Graph, ids, spare []EdgeID, keys, spareKeys []uint64) (order, free []EdgeID) {
	const (
		digitBits = 11
		passes    = (64 + digitBits - 1) / digitBits
		mask      = 1<<digitBits - 1
	)
	n := len(g.edges)
	if n == 0 {
		return ids, spare
	}
	minKey := uint64(math.MaxUint64)
	for i, e := range g.edges {
		b := math.Float64bits(e.W)
		if e.W == 0 {
			b = 0
		}
		if b>>63 == 0 {
			b = ^b &^ (1 << 63)
		}
		keys[i] = b
		ids[i] = EdgeID(i)
		minKey = min(minKey, b)
	}
	var hist [passes][1 << digitBits]int32
	for i, k := range keys {
		k -= minKey
		keys[i] = k
		for d := range hist {
			hist[d][k>>(digitBits*d)&mask]++
		}
	}
	for d := range hist {
		shift := digitBits * d
		h := &hist[d]
		if int(h[keys[0]>>shift&mask]) == n {
			continue
		}
		var sum int32
		for c := range h {
			h[c], sum = sum, sum+h[c]
		}
		for i, k := range keys {
			j := h[k>>shift&mask]
			h[k>>shift&mask]++
			spareKeys[j] = k
			spare[j] = ids[i]
		}
		keys, spareKeys = spareKeys, keys
		ids, spare = spare, ids
	}
	return ids, spare
}

// TopWeightSum returns the sum of the k largest edge weights, or the sum
// of all weights if the graph has fewer than k edges. Ordering Sampling
// uses k=3: w̄ = w(e₁)+w(e₂)+w(e₃) bounds how much any angle-plus-edge can
// still add to a butterfly (Section V-B).
func (g *Graph) TopWeightSum(k int) float64 {
	if k <= 0 {
		return 0
	}
	top := make([]float64, 0, k)
	for _, e := range g.edges {
		if len(top) < k {
			top = append(top, e.W)
			if len(top) == k {
				sort.Float64s(top)
			}
			continue
		}
		if e.W > top[0] {
			top[0] = e.W
			// Re-sift the smallest slot; k is tiny (3), a scan is fine.
			for i := 1; i < k && top[i] < top[i-1]; i++ {
				top[i], top[i-1] = top[i-1], top[i]
			}
		}
	}
	s := 0.0
	for _, w := range top {
		s += w
	}
	return s
}

// TotalExpectedEdges returns Σ_e p(e), the expected number of edges in a
// possible world.
func (g *Graph) TotalExpectedEdges() float64 {
	s := 0.0
	for _, e := range g.edges {
		s += e.P
	}
	return s
}

// MaxWeight returns the largest edge weight, or 0 for an empty graph.
func (g *Graph) MaxWeight() float64 {
	m := math.Inf(-1)
	for _, e := range g.edges {
		if e.W > m {
			m = e.W
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}
