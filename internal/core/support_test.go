package core

import (
	"math"
	"math/rand"
	"testing"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/dataset"
)

// edgeSupportReference is the exact per-edge butterfly count the snapshot
// build used before supportBits, frozen as the oracle of the bit: per
// center, one pass tallies cnt[u'] = |N(u) ∩ N(u')|, a second charges
// each edge (u, v) with Σ_{u' ∈ N(v), u' ≠ u} (cnt[u'] − 1), and a third
// resets the tally, with centers on the side wing decomposition picks.
// Counts saturate at MaxInt32.
func edgeSupportReference(g *bigraph.Graph) []int32 {
	sup := make([]int32, g.NumEdges())
	var sumL2, sumR2 int64
	for u := 0; u < g.NumL(); u++ {
		d := int64(g.DegreeL(bigraph.VertexID(u)))
		sumL2 += d * d
	}
	for v := 0; v < g.NumR(); v++ {
		d := int64(g.DegreeR(bigraph.VertexID(v)))
		sumR2 += d * d
	}
	if sumR2 <= sumL2 {
		// Left centers: inner loops walk right neighborhoods (cost Σ_R d²).
		cnt := make([]int32, g.NumL())
		for u := 0; u < g.NumL(); u++ {
			uid := bigraph.VertexID(u)
			for _, h := range g.NeighborsL(uid) {
				for _, h2 := range g.NeighborsR(h.To) {
					if h2.To != uid {
						cnt[h2.To]++
					}
				}
			}
			for _, h := range g.NeighborsL(uid) {
				var c int64
				for _, h2 := range g.NeighborsR(h.To) {
					if h2.To == uid {
						continue
					}
					c += int64(cnt[h2.To] - 1)
				}
				sup[h.E] = satInt32Reference(c)
			}
			for _, h := range g.NeighborsL(uid) {
				for _, h2 := range g.NeighborsR(h.To) {
					cnt[h2.To] = 0
				}
			}
		}
		return sup
	}
	// Right centers: symmetric, inner loops walk left neighborhoods
	// (cost Σ_L d²).
	cnt := make([]int32, g.NumR())
	for v := 0; v < g.NumR(); v++ {
		vid := bigraph.VertexID(v)
		for _, h := range g.NeighborsR(vid) {
			for _, h2 := range g.NeighborsL(h.To) {
				if h2.To != vid {
					cnt[h2.To]++
				}
			}
		}
		for _, h := range g.NeighborsR(vid) {
			var c int64
			for _, h2 := range g.NeighborsL(h.To) {
				if h2.To == vid {
					continue
				}
				c += int64(cnt[h2.To] - 1)
			}
			sup[h.E] = satInt32Reference(c)
		}
		for _, h := range g.NeighborsR(vid) {
			for _, h2 := range g.NeighborsL(h.To) {
				cnt[h2.To] = 0
			}
		}
	}
	return sup
}

func satInt32Reference(v int64) int32 {
	if v > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(v)
}

// checkSupportBits compares supportBits on g with the frozen support
// counts and with exhaustive butterfly listing.
func checkSupportBits(t *testing.T, name string, g *bigraph.Graph) {
	t.Helper()
	bits, _ := supportBits(g)
	listed := make([]bool, g.NumEdges())
	for _, b := range butterfly.AllBackbone(g) {
		ids, ok := b.B.EdgeIDs(g)
		if !ok {
			t.Fatalf("%s: listed butterfly %v is not in the backbone", name, b.B)
		}
		for _, id := range ids {
			listed[id] = true
		}
	}
	for e, c := range edgeSupportReference(g) {
		got := bits[e>>6]&(1<<(e&63)) != 0
		if got != (c > 0) || got != listed[e] {
			t.Fatalf("%s: edge %d bit %v, reference support %d, on a listed butterfly %v", name, e, got, c, listed[e])
		}
	}
}

// TestSupportBitsMatchOracles: the early-exit witness bit equals
// support > 0 from the frozen exact counts and from exhaustive listing,
// on random graphs from sparse (mostly fallback tallies) to dense (mostly
// one-step witnesses) and on skewed synthetic graphs.
func TestSupportBitsMatchOracles(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		g := randGraph(r, 12, 12, []int{10, 30, 80}[i%3])
		checkSupportBits(t, "random", g)
	}
	for seed := uint64(1); seed <= 6; seed++ {
		d, err := dataset.Synthetic(dataset.SyntheticConfig{
			Seed: seed, NumL: 40 + 20*int(seed), NumR: 30, NumEdges: 150 * int(seed), DegreeSkew: float64(seed%3) * 0.7,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkSupportBits(t, "synthetic", d.G)
	}
}

// projectivePlane returns the point-line incidence graph of PG(2, q) for
// a prime q, keeping the first lines of its q²+q+1 lines: q²+q+1 points
// on the left, each kept line on the right with its q+1 points. Two
// points share exactly one line, so the graph has girth at least 6 and no
// butterfly at all; keeping fewer lines makes the two sides' Σ d² differ.
func projectivePlane(q, lines int) *bigraph.Graph {
	var vecs [][3]int // one normalized representative per 1-dim subspace of F_q³
	for a := 0; a < q; a++ {
		for b := 0; b < q; b++ {
			vecs = append(vecs, [3]int{1, a, b})
		}
	}
	for a := 0; a < q; a++ {
		vecs = append(vecs, [3]int{0, 1, a})
	}
	vecs = append(vecs, [3]int{0, 0, 1})
	b := bigraph.NewBuilder(len(vecs), lines)
	for p, x := range vecs {
		for l, y := range vecs[:lines] {
			if (x[0]*y[0]+x[1]*y[1]+x[2]*y[2])%q == 0 {
				b.MustAddEdge(bigraph.VertexID(p), bigraph.VertexID(l), 1, 0.5)
			}
		}
	}
	return b.Build()
}

// TestSupportBitsButterflyFreeBound: on a butterfly-free graph every
// probe runs out of budget and falls back to the tally, the worst case of
// supportBits. Every bit must stay 0 and the work within 3x the cheaper
// side's Σ d², the cost bound of the exact count it replaced.
func TestSupportBitsButterflyFreeBound(t *testing.T) {
	for _, q := range []int{7, 11} {
		n := q*q + q + 1
		for _, lines := range []int{n, n / 2} {
			g := projectivePlane(q, lines)
			if g.NumEdges() != lines*(q+1) {
				t.Fatalf("PG(2,%d) has %d incidences on %d lines, want %d", q, g.NumEdges(), lines, lines*(q+1))
			}
			bits, steps := supportBits(g)
			for i, w := range bits {
				if w != 0 {
					t.Fatalf("PG(2,%d), %d lines: support bits set in word %d of a butterfly-free graph", q, lines, i)
				}
			}
			var sumL2, sumR2 int
			for u := 0; u < g.NumL(); u++ {
				sumL2 += g.DegreeL(bigraph.VertexID(u)) * g.DegreeL(bigraph.VertexID(u))
			}
			for v := 0; v < g.NumR(); v++ {
				sumR2 += g.DegreeR(bigraph.VertexID(v)) * g.DegreeR(bigraph.VertexID(v))
			}
			if bound := 3 * min(sumL2, sumR2); steps > bound {
				t.Fatalf("PG(2,%d), %d lines: %d steps, want at most %d", q, lines, steps, bound)
			}
			checkSupportBits(t, "projective plane", g)
		}
	}
}
