package core

import (
	"sync"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/randx"
)

// rngBlock is the batch width of the kernel's block RNG generation: raw
// generator words are produced rngBlock snapshot positions at a time and
// turned into a presence bitmask by branch-free threshold subtraction
// (see runTrialRNG). 64 positions fit exactly one mask word, and a
// 64-word buffer stays comfortably on the stack.
const (
	rngBlock      = 64
	rngBlockShift = 6
)

// calibrationTrials is K, the number of reserved trials the snapshot
// build runs to place the truncated edge-prefix boundary. The boundary
// is the maximum prune point those K trials observed (plus margin); by
// exchangeability a fresh trial's prune point exceeds the maximum of K
// i.i.d. calibration trials with probability at most 1/(K+1), so the
// prefix-sufficiency check trips into the full-scan fallback on at most
// ~1.5% of trials even before the margin. See docs/ALGORITHMS.md,
// "Performance engineering v2".
const calibrationTrials = 64

// calibrationSalt seeds the calibration stream family together with the
// graph checksum, keeping the prefix boundary a pure function of the
// graph — never of a run's seed — so one calibrated snapshot serves
// every run over the same graph.
const calibrationSalt = 0x5ca1ab1e0ddba11d

// edgeSnapshot is the struct-of-arrays view of a graph the flat OS trial
// kernel scans: one parallel slice per field, in descending-weight order
// (Algorithm 2 line 1), so a trial walks contiguous memory instead of
// chasing edge ids through the AoS edge table. The Bernoulli threshold of
// every edge is precomputed once per snapshot (randx.BernoulliThreshold),
// turning per-edge presence into a shift-and-compare against one raw
// generator word — with draw-for-draw identical semantics to
// randx.Bernoulli, so Results stay bit-identical to the seed
// implementation.
//
// The snapshot also carries the flat N̂_E layout: right vertex v's live
// already-processed edges occupy liveFlat[liveOff[v] : liveOff[v]+len],
// where the region capacity is deg(v) — the most live edges v can ever
// accumulate in one trial — so per-trial bookkeeping never allocates.
//
// Since PR 9 the snapshot is immutable after snapshotFor returns and is
// shared by every kernel over the same graph (see snapshotFor): it
// additionally precomputes the batched-RNG draw schedule (admitTh,
// wordOf, ndraws), which folds in each edge's butterfly-support bit, the
// support-sharpened prune budgets (wBarS, wBar2S), and the calibrated
// truncated-prefix boundary (prefixLen).
type edgeSnapshot struct {
	w      []float64          // edge weight, descending
	prt    []bigraph.VertexID // pairing endpoint (outer side of the angle)
	ctr    []bigraph.VertexID // center endpoint (middle side, owns the live lists)
	pc     []uint64           // uint64(prt)<<32 | uint64(ctr): both endpoints in one load
	id     []bigraph.EdgeID   // original edge id (oracle path, butterflies)
	thresh []uint64           // randx.BernoulliThreshold of the edge's p

	wBar float64 // w(e1)+w(e2)+w(e3), the Section V-B prune budget

	// flip selects which side the angle middles live on. An angle is two
	// present edges sharing a middle vertex; a butterfly is two angles
	// sharing the same outer pair with distinct middles — the definition
	// is side-symmetric, so the kernel may center its live lists on
	// either side and produce the same butterfly set. The build centers
	// on the side with the smaller expected pair-work Σ d̄(x)² (d̄ = sum
	// of incident edge probabilities) — the wing-decomposition /
	// vertex-priority side-selection rule — which on skewed graphs cuts
	// the per-trial angle count by orders of magnitude. flip=false
	// centers on the right side (middles are right vertices, the seed
	// implementation's fixed choice); flip=true centers on the left.
	flip bool

	liveOff []int32 // per center vertex offset into liveFlat, len numCenter+1

	// tok holds one fixed random 64-bit token per pairing-side vertex.
	// The angle table hashes an endpoint pair as tok[a]^tok[b] (Zobrist
	// hashing): two L1 loads and an XOR, symmetric in the pair so the
	// kernel needs no canonical ordering before hashing, and cheaper than
	// running the packed key through a multiply-based finalizer on every
	// angle.
	tok []uint64

	// admitTh is the batched-admission threshold of each position,
	// normalized into [0, 2^53] so one branch-free comparison per edge
	// decides admission: a position is admitted iff word>>11 < admitTh.
	// An edge on no backbone butterfly (supportBits leaves its bit clear)
	// can complete a butterfly in no possible world, so the kernel never
	// admits it, though it still consumes its Bernoulli draw so the word
	// schedule of every later edge is unchanged.
	// p <= 0 and unsupported edges map to 0 (word>>11 < 0 is never true),
	// p >= 1 maps to 2^53 (word>>11 <= 2^53-1 < 2^53 is always true),
	// and p in (0, 1) keeps its BernoulliThreshold in [1, 2^53].
	admitTh []uint64

	// wordOf[i] is the index, within position i's rngBlock-wide block, of
	// the raw generator word position i compares against: the count of
	// draw-consuming (p in (0,1)) positions between the block start and i.
	// Deterministic positions point at the next undetermined position's
	// word (or one past the block's words — a garbage slot the kernel
	// provides); their admitTh sentinel decides regardless of the word's
	// value, so the read is harmless and the loop stays branch-free.
	wordOf []uint8

	// ndraws[b] is how many raw words block b consumes: the number of
	// p in (0,1) positions in [b*rngBlock, min((b+1)*rngBlock, n)).
	ndraws []uint8

	// wBarS / wBar2S are the support-sharpened prune budgets: the sum of
	// the three (resp. two) largest weights among support-positive edges.
	// Every edge of any butterfly is support-positive, so any butterfly
	// containing the edge at position i weighs at most w[i]+wBarS, and
	// any butterfly completing a given angle weighs at most the angle's
	// weight plus wBar2S — both bounds strict below the running w_max
	// certify that skipping the position/angle cannot change the Result.
	wBarS  float64
	wBar2S float64

	// barren reports that no edge has butterfly support: the backbone
	// contains no 4-cycle, so every trial's maximum set is empty and the
	// kernel returns immediately.
	barren bool

	// prefixLen is the calibrated truncated-prefix boundary m (a multiple
	// of rngBlock, or numEdges): the kernel scans only positions < m and
	// runs the deterministic sufficiency check w[m]+wBarS < w_max at the
	// boundary, falling back to the tail scan — counted in telemetry —
	// exactly when the check fails. Uncalibrated snapshots use the full
	// length, which disables the fallback path entirely.
	prefixLen int

	// kernels is the free list of idle osIndex instances built over this
	// snapshot, so a run (or a worker) that needs a kernel for an
	// already-seen graph reuses the previous run's allocations instead of
	// rebuilding ~1MB of per-kernel scratch. Unlike a sync.Pool it is
	// never emptied by the garbage collector: it lives and dies with the
	// snapshot, and so with the graph (see snapshotFor), and it holds at
	// most as many kernels as the most workers that ever ran at once over
	// the snapshot. Kernels are only ever listed with their own snapshot,
	// so a listed kernel always matches the graph.
	kernelMu sync.Mutex
	kernels  []*osIndex
}

// getKernel pops an idle kernel off the free list (nil when it is empty).
func (s *edgeSnapshot) getKernel() *osIndex {
	s.kernelMu.Lock()
	defer s.kernelMu.Unlock()
	n := len(s.kernels)
	if n == 0 {
		return nil
	}
	k := s.kernels[n-1]
	s.kernels = s.kernels[:n-1]
	return k
}

// putKernel returns an idle kernel to the free list.
func (s *edgeSnapshot) putKernel(k *osIndex) {
	s.kernelMu.Lock()
	s.kernels = append(s.kernels, k)
	s.kernelMu.Unlock()
}

// liveEdge is one flat N̂_E entry: a live, already-processed edge incident
// to the region's center vertex. The weight and the pairing endpoint's
// Zobrist token ride along so angle formation (∠ = e_a ⊕ e_b) and the
// angle-table hash read everything from the same cache line instead of
// re-fetching the AoS edge record and the token array.
type liveEdge struct {
	to  bigraph.VertexID // pairing endpoint
	w   float64
	tok uint64 // snap.tok[to]
}

func newEdgeSnapshot(g *bigraph.Graph) *edgeSnapshot {
	// The weight sort's scratch arrays have the shapes of four snapshot
	// arrays, so they become them: the spare id buffer turns into prt and
	// the two key buffers into pc and thresh, all overwritten below.
	n := g.NumEdges()
	pc, thresh := make([]uint64, n), make([]uint64, n)
	sorted, prt := bigraph.SortByWeightDesc(g, make([]bigraph.EdgeID, n), make([]bigraph.EdgeID, n), pc, thresh)
	s := &edgeSnapshot{
		w:      make([]float64, n),
		prt:    prt,
		ctr:    make([]bigraph.VertexID, n),
		pc:     pc,
		id:     sorted,
		thresh: thresh,
		wBar:   g.TopWeightSum(3),
	}
	// Side selection: center the live middle lists on the side with the
	// smaller expected pair-work Σ_x d̄(x)² — the number of angles a trial
	// forms is Σ over center vertices of C(present degree, 2).
	var workL, workR float64
	for u := 0; u < g.NumL(); u++ {
		d := g.ExpectedDegreeL(bigraph.VertexID(u))
		workL += d * d
	}
	for v := 0; v < g.NumR(); v++ {
		d := g.ExpectedDegreeR(bigraph.VertexID(v))
		workR += d * d
	}
	s.flip = workL < workR
	for i, eid := range sorted {
		e := g.Edge(eid)
		s.w[i] = e.W
		if s.flip {
			s.prt[i], s.ctr[i] = e.V, e.U
		} else {
			s.prt[i], s.ctr[i] = e.U, e.V
		}
		s.pc[i] = uint64(s.prt[i])<<32 | uint64(s.ctr[i])
		s.thresh[i] = randx.BernoulliThreshold(e.P)
	}
	numCtr, numPrt := g.NumR(), g.NumL()
	if s.flip {
		numCtr, numPrt = g.NumL(), g.NumR()
	}
	s.liveOff = make([]int32, numCtr+1)
	for c := 0; c < numCtr; c++ {
		var deg int
		if s.flip {
			deg = g.DegreeL(bigraph.VertexID(c))
		} else {
			deg = g.DegreeR(bigraph.VertexID(c))
		}
		s.liveOff[c+1] = s.liveOff[c] + int32(deg)
	}
	s.tok = make([]uint64, numPrt)
	for u := range s.tok {
		sm := uint64(u) ^ 0x6a09e667f3bcc908 // fixed salt; any constant works
		s.tok[u] = randx.SplitMix64(&sm)
	}

	// Per-edge butterfly support, then the support-dependent kernel
	// tables: normalized admission thresholds, the block draw schedule,
	// and the sharpened prune budgets.
	onButterfly, _ := supportBits(g)
	supported := func(i int) bool { return onButterfly[s.id[i]>>6]&(1<<(s.id[i]&63)) != 0 }
	s.admitTh = make([]uint64, n)
	s.wordOf = make([]uint8, n)
	s.ndraws = make([]uint8, (n+rngBlock-1)/rngBlock)
	var draws uint8 // draw-consuming positions so far in the current block
	for i := 0; i < n; i++ {
		if i&(rngBlock-1) == 0 {
			draws = 0
		}
		s.wordOf[i] = draws
		th := s.thresh[i]
		if th != randx.BernoulliNever && th != randx.BernoulliAlways {
			draws++
		}
		s.ndraws[i>>rngBlockShift] = draws
		switch {
		case !supported(i) || th == randx.BernoulliNever:
			s.admitTh[i] = 0
		case th == randx.BernoulliAlways:
			s.admitTh[i] = 1 << 53
		default:
			s.admitTh[i] = th
		}
	}
	// Top-3/top-2 support-positive weights: positions are already weight
	// descending, so the first three support-positive positions are the
	// maxima.
	var top [3]float64
	found := 0
	for i := 0; i < n && found < 3; i++ {
		if supported(i) {
			top[found] = s.w[i]
			found++
		}
	}
	s.barren = found == 0
	s.wBarS = top[0] + top[1] + top[2]
	s.wBar2S = top[0] + top[1]
	s.prefixLen = n // uncalibrated: full scan, no fallback path
	return s
}

// numEdges returns the snapshot length.
func (s *edgeSnapshot) numEdges() int { return len(s.id) }

// supportBits marks, in a bitset indexed by edge id, every backbone edge
// that lies on at least one backbone butterfly (4-cycle). The kernel only
// needs that bit, so the search stops at one witness per edge instead of
// counting butterflies.
//
// Centers are the vertices of one side, chosen as wing decomposition
// does: the side whose neighbours (the middle side) have the smaller
// Σ d², so the wedge walks below cost at most that sum. For a center u,
// every middle neighbour v' ∈ N(u) is stamped with u and the edge (u, v').
// An edge (u, v) is then settled by walking the two-hop neighbours
// u' ∈ N(v) \ {u} and their rows N(u') until a stamped v' ≠ v closes the
// wedge: {u, u'} × {v, v'} is a butterfly, and all four of its edges get
// their bit, so later centers skip theirs. On graphs rich in butterflies
// this settles an edge within a few steps: on the 400k-edge skewed graph
// of the cold benchmark, under one row entry per edge on average.
//
// A center's probe may read at most W(u) = Σ_{v ∈ N(u)} deg(v) entries
// of two-hop rows N(u'), its share of the middle side's Σ d². Past that
// it falls back to the exact wedge tally for u: count |N(u) ∩ N(u')| for
// every two-hop u', and mark (u, v) iff some u' ∈ N(v) \ {u} shares two
// middles with u. The tally reads at most 2·W(u) middle-row entries, so
// the whole search costs at most 3·Σ d² even on a butterfly-free graph.
// steps reports the probes' two-hop entries plus the tallies' entries.
func supportBits(g *bigraph.Graph) (bits []uint64, steps int) {
	var sumL2, sumR2 int64
	for u := 0; u < g.NumL(); u++ {
		d := int64(g.DegreeL(bigraph.VertexID(u)))
		sumL2 += d * d
	}
	for v := 0; v < g.NumR(); v++ {
		d := int64(g.DegreeR(bigraph.VertexID(v)))
		sumR2 += d * d
	}
	w := witnessSearch{
		bits:   make([]uint64, (g.NumEdges()+63)/64),
		center: g.NeighborsL,
		middle: g.NeighborsR,
	}
	numCenter, numMiddle := g.NumL(), g.NumR()
	if sumR2 > sumL2 {
		w.center, w.middle = g.NeighborsR, g.NeighborsL
		numCenter, numMiddle = numMiddle, numCenter
	}
	w.stamp = make([]uint64, numMiddle)
	w.tally = make([]uint64, numCenter)
	for u := 0; u < numCenter; u++ {
		w.search(bigraph.VertexID(u))
	}
	return w.bits, w.steps
}

// witnessSearch is the state of supportBits. Both stamp and tally entries
// carry tag(u) = (u+1)<<32 in their high half, so a new center
// invalidates the previous one's entries without clearing them: stamp
// holds tag | id of the edge (u, v') for v' ∈ N(u), tally holds tag | the
// wedge count of a two-hop vertex. Centers run in ascending order, so an
// entry left by an earlier center compares below the current tag.
type witnessSearch struct {
	bits           []uint64
	center, middle func(bigraph.VertexID) []bigraph.Half
	stamp, tally   []uint64
	steps          int
}

func (w *witnessSearch) has(e bigraph.EdgeID) bool { return w.bits[e>>6]&(1<<(e&63)) != 0 }
func (w *witnessSearch) set(e bigraph.EdgeID)      { w.bits[e>>6] |= 1 << (e & 63) }

func (w *witnessSearch) search(u bigraph.VertexID) {
	row := w.center(u)
	if len(row) < 2 {
		return // a butterfly needs two edges at each of its vertices
	}
	tag := (uint64(u) + 1) << 32
	budget := 0
	for _, h := range row {
		w.stamp[h.To] = tag | uint64(h.E)
		budget += len(w.middle(h.To))
	}
	spent := 0
edges:
	for _, h := range row {
		if w.has(h.E) {
			continue
		}
		for _, h2 := range w.middle(h.To) {
			if h2.To == u {
				continue
			}
			for _, h3 := range w.center(h2.To) {
				if spent == budget {
					w.steps += spent
					w.tallySearch(u, row, tag)
					return
				}
				spent++
				if s := w.stamp[h3.To]; s>>32 == tag>>32 && h3.To != h.To {
					w.set(h.E)
					w.set(h2.E)
					w.set(h3.E)
					w.set(bigraph.EdgeID(s))
					continue edges
				}
			}
		}
	}
	w.steps += spent
}

// tallySearch is the exact fallback of search: a wedge tally over u's
// two-hop neighbours, then one early-exit check per unsettled edge.
func (w *witnessSearch) tallySearch(u bigraph.VertexID, row []bigraph.Half, tag uint64) {
	for _, h := range row {
		mid := w.middle(h.To)
		w.steps += len(mid)
		for _, h2 := range mid {
			if c := w.tally[h2.To]; c>>32 == tag>>32 {
				w.tally[h2.To] = c + 1
			} else {
				w.tally[h2.To] = tag | 1
			}
		}
	}
	for _, h := range row {
		if w.has(h.E) {
			continue
		}
		for _, h2 := range w.middle(h.To) {
			w.steps++
			// tally[u] itself is deg(u) ≥ 2, so skip the center.
			if h2.To != u && w.tally[h2.To] >= tag|2 {
				w.set(h.E)
				break
			}
		}
	}
}

// calibrate places the truncated-prefix boundary by running
// calibrationTrials reserved trials whose streams derive from the graph
// checksum (never a run seed), recording the maximum position the
// support-sharpened prune let any of them reach, and rounding that high
// -water mark — plus a 1/8 margin and one spare block — up to a block
// multiple. A fresh run trial then needs the tail beyond the boundary
// with probability at most 1/(K+1) (exchangeability of K+1 i.i.d.
// trials), before the margin; when it does, the kernel's sufficiency
// check fails closed into the exact full-scan continuation and the
// fallback is counted in telemetry.
func (s *edgeSnapshot) calibrate(g *bigraph.Graph) {
	n := s.numEdges()
	s.prefixLen = n
	if s.barren || n <= rngBlock {
		return
	}
	x := newOSIndexFromSnapshot(g, OSOptions{}, s)
	root := randx.New(uint64(g.Checksum())*0x9e3779b97f4a7c15 ^ calibrationSalt)
	var sMB butterfly.MaxSet
	maxStop := 0
	for t := 1; t <= calibrationTrials; t++ {
		stop, _ := x.runTrialSeeded(root, uint64(t), &sMB)
		if stop > maxStop {
			maxStop = stop
		}
	}
	m := maxStop + maxStop/8 + rngBlock
	m = (m + rngBlock - 1) &^ (rngBlock - 1)
	if m < n {
		s.prefixLen = m
	}
	s.putKernel(x) // the calibration kernel seeds the snapshot's free list
}

// snapshotKey is the key the calibrated snapshot is stored under on its
// graph (bigraph.Graph.Derived), so it lives exactly as long as the graph:
// repeated runs, parallel workers and pooled service jobs over a graph
// share one snapshot and its kernel free list, and a graph no caller
// holds any more takes both with it when it is collected.
type snapshotKey struct{}

// snapshotFor returns the calibrated snapshot for g, building it on the
// first request. Building (support counting + calibration trials)
// happens without a lock, so concurrent first requests for the same graph
// may build duplicates — each fully calibrated and interchangeable; the
// first one stored wins.
func snapshotFor(g *bigraph.Graph) *edgeSnapshot {
	if s, ok := g.Derived(snapshotKey{}); ok {
		return s.(*edgeSnapshot)
	}
	s := newEdgeSnapshot(g)
	s.calibrate(g)
	return g.StoreDerived(snapshotKey{}, s).(*edgeSnapshot)
}

// edgeThresholds precomputes the Bernoulli threshold of every backbone
// edge, indexed by edge id. The candidate estimators (Algorithms 4 and 5)
// sample edges by id rather than in weight order, so they share this
// id-indexed table instead of the weight-ordered snapshot.
func edgeThresholds(g *bigraph.Graph) []uint64 {
	th := make([]uint64, g.NumEdges())
	for i := range th {
		th[i] = randx.BernoulliThreshold(g.Edge(bigraph.EdgeID(i)).P)
	}
	return th
}
