package bigraph

import (
	"fmt"

	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// InducedSubgraph returns the subgraph induced by the given vertex subsets
// (keepL over L, keepR over R), with vertices renumbered densely in the
// order they appear in the keep slices. Edges survive iff both endpoints
// are kept. Duplicate ids in a keep slice are an error.
func (g *Graph) InducedSubgraph(keepL, keepR []VertexID) (*Graph, error) {
	mapL := make(map[VertexID]VertexID, len(keepL))
	for i, u := range keepL {
		if int(u) >= g.numL {
			return nil, fmt.Errorf("bigraph: induced subgraph: left vertex %d out of range", u)
		}
		if _, dup := mapL[u]; dup {
			return nil, fmt.Errorf("bigraph: induced subgraph: duplicate left vertex %d", u)
		}
		mapL[u] = VertexID(i)
	}
	mapR := make(map[VertexID]VertexID, len(keepR))
	for i, v := range keepR {
		if int(v) >= g.numR {
			return nil, fmt.Errorf("bigraph: induced subgraph: right vertex %d out of range", v)
		}
		if _, dup := mapR[v]; dup {
			return nil, fmt.Errorf("bigraph: induced subgraph: duplicate right vertex %d", v)
		}
		mapR[v] = VertexID(i)
	}
	var edges []Edge
	for _, e := range g.edges {
		nu, okU := mapL[e.U]
		nv, okV := mapR[e.V]
		if okU && okV {
			edges = append(edges, Edge{U: nu, V: nv, W: e.W, P: e.P})
		}
	}
	return newGraph(len(keepL), len(keepR), edges)
}

// VertexSample returns the subgraph induced by a uniformly random fraction
// of vertices on each side (at least one vertex per non-empty side when
// frac > 0). This is the workload transformation behind the scalability
// experiment (Fig. 9), which evaluates each method on 25%, 50%, 75% and
// 100% of the vertices.
func (g *Graph) VertexSample(frac float64, rng *randx.RNG) (*Graph, error) {
	if frac < 0 || frac > 1 {
		return nil, fmt.Errorf("bigraph: vertex sample fraction %v outside [0,1]", frac)
	}
	pick := func(n int) []VertexID {
		k := int(float64(n) * frac)
		if k == 0 && n > 0 && frac > 0 {
			k = 1
		}
		perm := rng.Perm(n)
		ids := make([]VertexID, k)
		for i := 0; i < k; i++ {
			ids[i] = VertexID(perm[i])
		}
		return ids
	}
	return g.InducedSubgraph(pick(g.numL), pick(g.numR))
}

// Stats summarizes a graph for reporting (Table III of the paper).
type Stats struct {
	NumL, NumR, NumEdges int
	MinWeight, MaxWeight float64
	MeanWeight           float64
	MinProb, MaxProb     float64
	MeanProb             float64
	ExpectedEdges        float64 // Σ p(e)
	MaxDegreeL           int
	MaxDegreeR           int
}

// ComputeStats scans the graph once and returns its summary statistics.
func (g *Graph) ComputeStats() Stats {
	s := Stats{NumL: g.numL, NumR: g.numR, NumEdges: len(g.edges)}
	if len(g.edges) == 0 {
		return s
	}
	s.MinWeight, s.MaxWeight = g.edges[0].W, g.edges[0].W
	s.MinProb, s.MaxProb = g.edges[0].P, g.edges[0].P
	var wSum, pSum float64
	for _, e := range g.edges {
		if e.W < s.MinWeight {
			s.MinWeight = e.W
		}
		if e.W > s.MaxWeight {
			s.MaxWeight = e.W
		}
		if e.P < s.MinProb {
			s.MinProb = e.P
		}
		if e.P > s.MaxProb {
			s.MaxProb = e.P
		}
		wSum += e.W
		pSum += e.P
	}
	s.MeanWeight = wSum / float64(len(g.edges))
	s.MeanProb = pSum / float64(len(g.edges))
	s.ExpectedEdges = pSum
	for u := 0; u < g.numL; u++ {
		if d := g.DegreeL(VertexID(u)); d > s.MaxDegreeL {
			s.MaxDegreeL = d
		}
	}
	for v := 0; v < g.numR; v++ {
		if d := g.DegreeR(VertexID(v)); d > s.MaxDegreeR {
			s.MaxDegreeR = d
		}
	}
	return s
}
