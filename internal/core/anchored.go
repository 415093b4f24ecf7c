package core

import (
	"fmt"
	"math"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// AnchorKind selects which element of the graph an anchored query pins.
type AnchorKind uint8

const (
	// AnchorLeft restricts the search to butterflies containing the left
	// vertex Anchor.U.
	AnchorLeft AnchorKind = iota + 1
	// AnchorRight restricts the search to butterflies containing the right
	// vertex Anchor.V.
	AnchorRight
	// AnchorEdge restricts the search to butterflies containing the
	// backbone edge (Anchor.U, Anchor.V).
	AnchorEdge
)

// Anchor pins an anchored MPMB query to a vertex or a backbone edge: only
// butterflies containing the anchor compete for S_MB in each sampled
// world. The zero Anchor means "no anchor" (a global query).
type Anchor struct {
	Kind AnchorKind
	U    bigraph.VertexID // left vertex (AnchorLeft, AnchorEdge)
	V    bigraph.VertexID // right vertex (AnchorRight, AnchorEdge)
}

// Validate checks the anchor against the graph's vertex ranges and, for
// AnchorEdge, backbone membership.
func (a Anchor) Validate(g *bigraph.Graph) error {
	switch a.Kind {
	case AnchorLeft:
		if int(a.U) >= g.NumL() {
			return fmt.Errorf("core: anchor left vertex %d out of range [0,%d)", a.U, g.NumL())
		}
	case AnchorRight:
		if int(a.V) >= g.NumR() {
			return fmt.Errorf("core: anchor right vertex %d out of range [0,%d)", a.V, g.NumR())
		}
	case AnchorEdge:
		if int(a.U) >= g.NumL() {
			return fmt.Errorf("core: anchor edge left endpoint %d out of range [0,%d)", a.U, g.NumL())
		}
		if int(a.V) >= g.NumR() {
			return fmt.Errorf("core: anchor edge right endpoint %d out of range [0,%d)", a.V, g.NumR())
		}
		if _, ok := g.FindEdge(a.U, a.V); !ok {
			return fmt.Errorf("core: anchor edge (%d,%d) is not a backbone edge", a.U, a.V)
		}
	default:
		return fmt.Errorf("core: anchor kind unset")
	}
	return nil
}

// check validates a run's anchor; the zero Anchor (a global run) passes.
func (a Anchor) check(g *bigraph.Graph) error {
	if a.Kind == 0 {
		return nil
	}
	return a.Validate(g)
}

func (a Anchor) String() string {
	switch a.Kind {
	case AnchorLeft:
		return fmt.Sprintf("L%d", a.U)
	case AnchorRight:
		return fmt.Sprintf("R%d", a.V)
	case AnchorEdge:
		return fmt.Sprintf("E(%d,%d)", a.U, a.V)
	}
	return "unanchored"
}

// anchorPartner is the per-partner angle record of the anchored trial
// scan, the anchor-restricted analogue of the OS kernel's angleEntry: for
// a partner vertex p on the anchor's side its Table II classes track the
// best (w1) and second-best (w2) angle weight through the anchor, with the
// middle vertices attaining each. For AnchorEdge queries only wA (the
// forced angle through the anchored middle) and the w1 class are used.
type anchorPartner struct {
	angleClasses
	gen uint32
	wA  float64
}

// anchoredIndex is the anchored trialKernel: instead of the global OS
// edge scan it enumerates only the anchor's two-hop neighbourhood,
// Bernoulli-sampling each touched edge lazily (at most once per trial,
// through the same precomputed thresholds as the optimized estimator).
// Distinct trials derive independent streams from the root seed, so the
// per-trial distribution of S_MB restricted to anchor-containing
// butterflies is exact even though untouched edges are never drawn.
type anchoredIndex struct {
	g          *bigraph.Graph
	anchor     Anchor
	anchorEdge bigraph.EdgeID // AnchorEdge only

	// Lazy per-trial edge presence, EstimateOptimized-style.
	thresh []uint64
	stamp  []int32
	val    []bool
	cur    int32
	rng    randx.RNG

	// Per-partner angle table with generation stamps, so a trial only
	// resets the entries it touches.
	ents    []anchorPartner
	gen     uint32
	touched []bigraph.VertexID
}

func newAnchoredIndex(g *bigraph.Graph, a Anchor) *anchoredIndex {
	x := &anchoredIndex{
		g:      g,
		anchor: a,
		thresh: edgeThresholds(g),
		stamp:  make([]int32, g.NumEdges()),
		val:    make([]bool, g.NumEdges()),
	}
	partners := g.NumL()
	if a.Kind == AnchorRight {
		partners = g.NumR()
	}
	x.ents = make([]anchorPartner, partners)
	if a.Kind == AnchorEdge {
		id, ok := g.FindEdge(a.U, a.V)
		if !ok {
			panic("core: anchoredIndex on non-backbone anchor edge")
		}
		x.anchorEdge = id
	}
	return x
}

// present lazily samples edge id for the current trial.
func (x *anchoredIndex) present(id bigraph.EdgeID) bool {
	if x.stamp[id] != x.cur {
		x.stamp[id] = x.cur
		x.val[id] = x.rng.BernoulliThresholded(x.thresh[id])
	}
	return x.val[id]
}

// entry returns the partner record, resetting it on first touch in the
// current trial.
func (x *anchoredIndex) entry(p bigraph.VertexID) *anchorPartner {
	e := &x.ents[p]
	if e.gen != x.gen {
		e.gen = x.gen
		e.wA = math.Inf(-1)
		e.w1 = math.Inf(-1)
		e.w2 = math.Inf(-1)
		e.mids1 = e.mids1[:0]
		e.mids2 = e.mids2[:0]
		x.touched = append(x.touched, p)
	}
	return e
}

// runTrialSeeded samples one world with the per-trial stream derived from
// root and fills sMB with the anchored maximum butterfly set. The
// traversal has no ordered scan to report.
func (x *anchoredIndex) runTrialSeeded(root *randx.RNG, id uint64, sMB *butterfly.MaxSet) (scanned int, fellBack bool) {
	root.DeriveInto(id, &x.rng)
	x.cur++
	if x.cur == math.MaxInt32 {
		for i := range x.stamp {
			x.stamp[i] = 0
		}
		x.cur = 1
	}
	x.runTrial(sMB, x.present)
	return 0, false
}

func (x *anchoredIndex) scanLen() int { return 0 }

// release is a no-op: an anchored kernel is private to its run.
func (x *anchoredIndex) release() {}

// runTrial computes S_MB restricted to butterflies containing the anchor
// under the given edge-presence oracle. present is consulted at most once
// per edge per trial by construction of the traversal plus (for the RNG
// path) the stamp table.
func (x *anchoredIndex) runTrial(sMB *butterfly.MaxSet, present func(bigraph.EdgeID) bool) {
	sMB.Reset()
	x.touched = x.touched[:0]
	x.gen++
	if x.gen == 0 {
		for i := range x.ents {
			x.ents[i].gen = 0
		}
		x.gen = 1
	}
	switch x.anchor.Kind {
	case AnchorLeft:
		x.vertexTrial(x.anchor.U, x.g.NeighborsL(x.anchor.U), x.g.NeighborsR, present, sMB)
	case AnchorRight:
		x.vertexTrial(x.anchor.V, x.g.NeighborsR(x.anchor.V), x.g.NeighborsL, present, sMB)
	case AnchorEdge:
		x.edgeTrial(present, sMB)
	}
}

// vertexTrial handles vertex anchors. outer is the anchor's adjacency
// (middles on the opposite side); inner maps a middle to its adjacency
// (partners on the anchor's side). Angles (anchor, mid, partner) feed the
// Table II classes keyed by partner; the anchored S_MB is then the union,
// over partners attaining the maximum bestWeight, of the butterflies
// formable from their top angle classes.
func (x *anchoredIndex) vertexTrial(anchor bigraph.VertexID, outer []bigraph.Half, inner func(bigraph.VertexID) []bigraph.Half, present func(bigraph.EdgeID) bool, sMB *butterfly.MaxSet) {
	g := x.g
	for _, h := range outer {
		if !present(h.E) {
			continue
		}
		mid := h.To
		wAnchor := g.Edge(h.E).W
		for _, h2 := range inner(mid) {
			p := h2.To
			if p == anchor || !present(h2.E) {
				continue
			}
			x.entry(p).update(wAnchor+g.Edge(h2.E).W, mid)
		}
	}
	wMax := math.Inf(-1)
	for _, p := range x.touched {
		if bw := x.ents[p].bestWeight(); bw > wMax {
			wMax = bw
		}
	}
	if math.IsInf(wMax, -1) {
		return
	}
	for _, p := range x.touched {
		e := &x.ents[p]
		if e.bestWeight() != wMax {
			continue
		}
		if len(e.mids1) >= 2 {
			for i := 0; i < len(e.mids1); i++ {
				for j := i + 1; j < len(e.mids1); j++ {
					x.emit(sMB, p, e.mids1[i], e.mids1[j], wMax)
				}
			}
		}
		if len(e.mids1) == 1 && e.w1+e.w2 == wMax {
			for _, m2 := range e.mids2 {
				x.emit(sMB, p, e.mids1[0], m2, wMax)
			}
		}
	}
}

// edgeTrial handles edge anchors (u,v): when the anchored edge is
// present, each partner p with (p,v) present contributes the forced angle
// wA(p) = w(u,v)+w(p,v), and the best co-angle (u,m,p) over middles m != v
// completes the butterfly B(u,p|v,m) of weight wA(p)+w(u,m)+w(p,m).
func (x *anchoredIndex) edgeTrial(present func(bigraph.EdgeID) bool, sMB *butterfly.MaxSet) {
	if !present(x.anchorEdge) {
		return
	}
	g := x.g
	u, v := x.anchor.U, x.anchor.V
	wuv := g.Edge(x.anchorEdge).W
	for _, h := range g.NeighborsR(v) {
		p := h.To
		if p == u || !present(h.E) {
			continue
		}
		x.entry(p).wA = wuv + g.Edge(h.E).W
	}
	for _, h := range g.NeighborsL(u) {
		mid := h.To
		if mid == v || !present(h.E) {
			continue
		}
		wum := g.Edge(h.E).W
		for _, h2 := range g.NeighborsR(mid) {
			p := h2.To
			if p == u || !present(h2.E) {
				continue
			}
			e := &x.ents[p]
			if e.gen != x.gen || math.IsInf(e.wA, -1) {
				continue // (p,v) absent: no butterfly through the anchor edge
			}
			w := wum + g.Edge(h2.E).W
			switch {
			case w > e.w1:
				e.w1 = w
				e.mids1 = append(e.mids1[:0], mid)
			case w == e.w1:
				e.mids1 = append(e.mids1, mid)
			}
		}
	}
	wMax := math.Inf(-1)
	for _, p := range x.touched {
		e := &x.ents[p]
		if len(e.mids1) == 0 {
			continue
		}
		if bw := e.wA + e.w1; bw > wMax {
			wMax = bw
		}
	}
	if math.IsInf(wMax, -1) {
		return
	}
	for _, p := range x.touched {
		e := &x.ents[p]
		if len(e.mids1) == 0 || e.wA+e.w1 != wMax {
			continue
		}
		for _, m := range e.mids1 {
			sMB.Add(butterfly.New(u, p, v, m), wMax)
		}
	}
}

// emit adds the butterfly formed by the anchor, partner p and middles m1,
// m2, orienting by the anchor's side.
func (x *anchoredIndex) emit(sMB *butterfly.MaxSet, p, m1, m2 bigraph.VertexID, w float64) {
	if x.anchor.Kind == AnchorRight {
		sMB.Add(butterfly.New(m1, m2, x.anchor.V, p), w)
		return
	}
	sMB.Add(butterfly.New(x.anchor.U, p, m1, m2), w)
}

// ExactAnchored enumerates every possible world (so the graph must have
// at most possible.MaxEnumerableEdges edges) and accumulates the exact
// probability of each butterfly being in the anchored maximum set — the
// brute-force oracle the statcheck harness certifies anchored estimators
// against. An anchor contained in no butterfly yields an empty Result.
func ExactAnchored(g *bigraph.Graph, a Anchor) (*Result, error) {
	if err := a.Validate(g); err != nil {
		return nil, err
	}
	x := newAnchoredIndex(g, a)
	probs := make(map[butterfly.Butterfly]float64)
	weights := make(map[butterfly.Butterfly]float64)
	var sMB butterfly.MaxSet
	err := possible.Enumerate(g, func(w *possible.World, pr float64) bool {
		if pr == 0 {
			return true
		}
		x.runTrial(&sMB, w.Has)
		for _, b := range sMB.Set {
			probs[b] += pr
			weights[b] = sMB.W
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	es := make([]Estimate, 0, len(probs))
	for b, p := range probs {
		es = append(es, Estimate{B: b, P: p, Weight: weights[b]})
	}
	sortEstimates(es)
	return &Result{Method: "exact", Estimates: es}, nil
}
