package bigraph

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file freezes the string-based text parser, the dedup-map edge
// validation and the per-row sort.Slice CSR build that Read used before
// it moved to byte-level field splitting and counting-sort adjacency.
// They are test oracles only: FuzzReadMatchesReference holds Read to the
// same accept/reject decisions and, on accept, to a reflect.DeepEqual
// graph.

func readReference(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	lineNo := 0
	var numL, numR int
	var edges []Edge
	var seen map[uint64]struct{}
	declared := -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if seen == nil {
			if len(fields) != 4 || fields[0] != formatMagic {
				return nil, fmt.Errorf("bigraph: line %d: expected header", lineNo)
			}
			var err error
			numL, err = strconv.Atoi(fields[1])
			if err != nil || numL < 0 || numL > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numL %q", lineNo, fields[1])
			}
			numR, err = strconv.Atoi(fields[2])
			if err != nil || numR < 0 || numR > maxVerticesPerSide {
				return nil, fmt.Errorf("bigraph: line %d: bad numR %q", lineNo, fields[2])
			}
			declared, err = strconv.Atoi(fields[3])
			if err != nil || declared < 0 || int64(declared) > maxTextEdges {
				return nil, fmt.Errorf("bigraph: line %d: bad edge count %q", lineNo, fields[3])
			}
			if int64(declared) > int64(numL)*int64(numR) {
				return nil, fmt.Errorf("bigraph: line %d: header declares too many edges", lineNo)
			}
			seen = make(map[uint64]struct{})
			continue
		}
		if len(fields) != 4 {
			return nil, fmt.Errorf("bigraph: line %d: got %d fields", lineNo, len(fields))
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad left vertex %q: %v", lineNo, fields[0], err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad right vertex %q: %v", lineNo, fields[1], err)
		}
		w, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad weight %q: %v", lineNo, fields[2], err)
		}
		p, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("bigraph: line %d: bad probability %q: %v", lineNo, fields[3], err)
		}
		switch {
		case int(u) >= numL, int(v) >= numR:
			return nil, fmt.Errorf("bigraph: line %d: vertex out of range", lineNo)
		case math.IsNaN(w) || math.IsInf(w, 0):
			return nil, fmt.Errorf("bigraph: line %d: non-finite weight", lineNo)
		case math.IsNaN(p) || p < 0 || p > 1:
			return nil, fmt.Errorf("bigraph: line %d: probability outside [0,1]", lineNo)
		}
		k := uint64(u)<<32 | v
		if _, dup := seen[k]; dup {
			return nil, fmt.Errorf("bigraph: line %d: duplicate edge (%d,%d)", lineNo, u, v)
		}
		seen[k] = struct{}{}
		edges = append(edges, Edge{U: VertexID(u), V: VertexID(v), W: w, P: p})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if seen == nil {
		return nil, fmt.Errorf("bigraph: missing header line")
	}
	if len(edges) != declared {
		return nil, fmt.Errorf("bigraph: header declares %d edges but file contains %d", declared, len(edges))
	}
	return newGraphReference(numL, numR, append(make([]Edge, 0, len(edges)), edges...)), nil
}

// newGraphReference is the CSR build that sorts every adjacency row with
// its own sort.Slice closure. edges must hold no duplicate pair.
func newGraphReference(numL, numR int, edges []Edge) *Graph {
	g := &Graph{
		numL:  numL,
		numR:  numR,
		edges: edges,
		lOff:  make([]int32, numL+1),
		rOff:  make([]int32, numR+1),
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
	g.lAdj = make([]Half, len(edges))
	g.rAdj = make([]Half, len(edges))
	lNext := make([]int32, numL)
	rNext := make([]int32, numR)
	copy(lNext, g.lOff[:numL])
	copy(rNext, g.rOff[:numR])
	for id, e := range edges {
		g.lAdj[lNext[e.U]] = Half{To: e.V, E: EdgeID(id)}
		lNext[e.U]++
		g.rAdj[rNext[e.V]] = Half{To: e.U, E: EdgeID(id)}
		rNext[e.V]++
	}
	for u := 0; u < numL; u++ {
		row := g.lAdj[g.lOff[u]:g.lOff[u+1]]
		sort.Slice(row, func(a, b int) bool { return row[a].To < row[b].To })
	}
	for v := 0; v < numR; v++ {
		row := g.rAdj[g.rOff[v]:g.rOff[v+1]]
		sort.Slice(row, func(a, b int) bool { return row[a].To < row[b].To })
	}
	return g
}

// edgesByWeightDescReference is the closure comparator sort that
// EdgesByWeightDesc used before its radix sort.
func edgesByWeightDescReference(g *Graph) []EdgeID {
	ids := make([]EdgeID, len(g.edges))
	for i := range ids {
		ids[i] = EdgeID(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		wa, wb := g.edges[ids[a]].W, g.edges[ids[b]].W
		if wa != wb {
			return wa > wb
		}
		return ids[a] < ids[b]
	})
	return ids
}
