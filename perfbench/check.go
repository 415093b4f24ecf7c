package main

import (
	"fmt"
	"math"

	mpmb "github.com/uncertain-graphs/mpmb"
)

// estimate is one reported butterfly, as the CLI's -json output, the
// daemon's /result document and an in-process Result all give it. JSON
// field matching is case-insensitive, so the CLI's "U1" and the daemon's
// "u1" both decode into it.
type estimate struct {
	U1, U2, V1, V2 uint32
	Weight         float64
	P              float64
}

// topOf returns the first k estimates of an in-process Result.
func topOf(res *mpmb.Result, k int) []estimate {
	var out []estimate
	for _, e := range res.TopK(k) {
		out = append(out, estimate{U1: e.B.U1, U2: e.B.U2, V1: e.B.V1, V2: e.B.V2, Weight: e.Weight, P: e.P})
	}
	return out
}

// checkTop checks a reported top list against the graph it was computed
// on: the list is non-empty, every entry is a butterfly of the backbone
// whose weight is the sum of its four edge weights, every estimate lies
// in [0, 1], and the list is sorted by descending estimate, ties by
// descending weight. With an anchor, the top butterfly contains it.
func checkTop(g *mpmb.Graph, top []estimate, anchorL *mpmb.VertexID) error {
	if len(top) == 0 {
		return fmt.Errorf("no butterfly reported")
	}
	for i, e := range top {
		if e.U1 == e.U2 || e.V1 == e.V2 {
			return fmt.Errorf("#%d %v is not a butterfly", i+1, e)
		}
		w := 0.0
		for _, uv := range [4][2]uint32{{e.U1, e.V1}, {e.U1, e.V2}, {e.U2, e.V1}, {e.U2, e.V2}} {
			if int(uv[0]) >= g.NumL() || int(uv[1]) >= g.NumR() {
				return fmt.Errorf("#%d %v names a vertex outside the graph", i+1, e)
			}
			id, ok := g.FindEdge(uv[0], uv[1])
			if !ok {
				return fmt.Errorf("#%d %v is not a backbone butterfly: no edge (%d,%d)", i+1, e, uv[0], uv[1])
			}
			w += g.Edge(id).W
		}
		if math.Abs(w-e.Weight) > 1e-9*math.Max(1, math.Abs(w)) {
			return fmt.Errorf("#%d %v reports weight %v, its edges sum to %v", i+1, e, e.Weight, w)
		}
		if !(e.P >= 0 && e.P <= 1) {
			return fmt.Errorf("#%d %v has estimate %v outside [0,1]", i+1, e, e.P)
		}
		if i > 0 {
			prev := top[i-1]
			if e.P > prev.P || (e.P == prev.P && e.Weight > prev.Weight) {
				return fmt.Errorf("#%d %v is out of order after %v", i+1, e, prev)
			}
		}
	}
	if a := anchorL; a != nil && top[0].U1 != *a && top[0].U2 != *a {
		return fmt.Errorf("top butterfly %v does not contain anchor %d", top[0], *a)
	}
	return nil
}

// sameTop checks that two paths reported the same butterflies with the
// same weights and estimates.
func sameTop(got, want []estimate) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d estimates, in-process Search gives %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("#%d is %v, in-process Search gives %v", i+1, got[i], want[i])
		}
	}
	return nil
}
