package core

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/uncertain-graphs/mpmb/internal/bigraph"
	"github.com/uncertain-graphs/mpmb/internal/butterfly"
	"github.com/uncertain-graphs/mpmb/internal/possible"
	"github.com/uncertain-graphs/mpmb/internal/randx"
	"github.com/uncertain-graphs/mpmb/internal/telemetry"
)

// OSOptions configures Ordering Sampling (Algorithm 2).
type OSOptions struct {
	// Trials is N_os, the number of sampled possible worlds. Must be > 0.
	Trials int
	// Seed makes the run reproducible.
	Seed uint64
	// DisableEdgePrune turns off the Edge Ordering prune of Section V-B
	// (break once w(e)+w̄ < w_max). Ablation only.
	DisableEdgePrune bool
	// KeepAllAngles stores every angle per endpoint pair instead of only
	// the top-2 weight classes of Section V-C (Table II). Ablation only;
	// results are identical, time and space are not.
	KeepAllAngles bool
	// DropA2 deliberately BREAKS the angle table: only the largest angle
	// weight class (A1) is maintained and the second class (A2) is
	// discarded, so butterflies formed from the top angle plus a strictly
	// lighter one are silently lost. This is NOT an ablation — it changes
	// results. It exists solely as fault injection for the statistical
	// conformance harness (internal/statcheck), which must demonstrably
	// fail when an estimator is biased. Never set it elsewhere.
	DropA2 bool
	// OnTrial, if non-nil, is invoked after every trial with the 1-based
	// trial index and that trial's maximum butterfly set. The MaxSet is
	// reused between trials; copy what must be retained. It needs a nil
	// Executor: trials then run in order on the caller's goroutine.
	OnTrial func(trial int, sMB *butterfly.MaxSet)
	// Interrupt, if non-nil, is polled between trials; when it returns
	// true the run stops and returns a partial Result over the completed
	// trials with a resumable Checkpoint attached. OS trials are short, so
	// between-trial granularity suffices (unlike MC-VP's mid-trial hook).
	// A multi-worker executor polls the hook concurrently from every
	// worker, so it must be safe for concurrent use there (a
	// context-derived hook is).
	Interrupt func() bool
	// Resume restores the accumulator from a checkpoint written by an
	// earlier cancelled run with identical options; the run continues at
	// trial Resume.Done+1 and the final Result is bit-identical to an
	// uninterrupted run.
	Resume *Checkpoint
	// Probe, if non-nil, receives run telemetry: trial counts, the edge
	// scanned/pruned split of the Section V-B prune, and (one worker
	// only) running leader estimates, batched at probeFlushEvery-trial
	// (or per-chunk) cadence. A nil Probe costs one predictable branch
	// per trial and changes no Result bit.
	Probe *telemetry.Probe
	// Executor runs the trials. Nil runs one worker inline on the
	// caller's goroutine; &LocalExecutor{Workers: N} runs N in-process
	// workers; any other TrialExecutor (e.g. a distributed fan-out) runs
	// them wherever it likes. Per-trial streams derive from (Seed, trial
	// index), so every conforming executor returns bit-identical results.
	Executor TrialExecutor
	// Anchor, when set, restricts every trial's S_MB to the butterflies
	// containing it (an anchored query): the trials run on the anchored
	// kernel instead of the global weight-ordered scan, with the same
	// trial streams, accumulation, checkpoints and executors. The
	// pruning and ablation knobs above do not apply to it.
	Anchor Anchor
}

// OS is Ordering Sampling (Section V, Algorithm 2). Like MC-VP it samples
// N_os possible worlds, but each trial searches for the maximum weighted
// butterflies directly:
//
//   - Edge Ordering (V-B): edges are processed in descending weight order
//     and the trial stops as soon as w(e) + w̄ < w_max, where w̄ is the sum
//     of the three globally largest edge weights — no later edge can
//     complete a butterfly beating w_max.
//   - Angle Ordering (V-C): per endpoint pair (u_i, u_k) only the largest
//     (A1) and second-largest (A2) angle weight classes are retained,
//     following the update cases of Table II.
//   - Fast Butterfly Creating (V-D): w_max is maintained online from
//     A1/A2, and only butterflies of weight exactly w_max are ever
//     materialized.
//
// Edges are Bernoulli-sampled lazily in weight order, which draws from
// exactly the same distribution as sampling the whole world up front
// (edges are independent) while never touching edges behind the prune.
//
// The trials run through opt.Executor (see OSOptions.Executor) on the
// flat-memory kernel (see osIndex): a SoA edge snapshot with precomputed
// Bernoulli thresholds, a generation-stamped open-addressing angle table,
// and a worker-local derived stream — all draw-for-draw identical to the
// frozen seed implementation in osref.go, which the equivalence tests
// compare against bit for bit.
func OS(g *bigraph.Graph, opt OSOptions) (*Result, error) {
	if opt.Trials <= 0 {
		return nil, fmt.Errorf("core: OS requires Trials > 0, got %d", opt.Trials)
	}
	if err := checkExecutor(opt.Executor, opt.OnTrial != nil, ""); err != nil {
		return nil, err
	}
	if err := opt.Anchor.check(g); err != nil {
		return nil, err
	}
	acc := newProbAccumulator()
	start := 0
	if opt.Resume != nil {
		if err := opt.Resume.resumeCheck("os", opt.Seed, opt.Trials, 0, 0, opt.Anchor, g); err != nil {
			return nil, err
		}
		acc = accumulatorFromCounts(opt.Resume.Counts)
		start = opt.Resume.Done
	}
	r, err := runExecutor(opt.Executor).ExecuteTrials(&ExecJob{
		Kind:  ExecOS,
		Graph: g,
		Seed:  opt.Seed,
		Units: opt.Trials,
		Start: start,
		OS: OSOptions{
			DisableEdgePrune: opt.DisableEdgePrune,
			KeepAllAngles:    opt.KeepAllAngles,
			DropA2:           opt.DropA2,
			OnTrial:          opt.OnTrial,
			Anchor:           opt.Anchor,
		},
		Interrupt: opt.Interrupt,
		Probe:     opt.Probe,
		Spec:      ExecSpec{Method: "os", Seed: opt.Seed, Trials: opt.Trials},
		acc:       acc,
	})
	if err != nil {
		return nil, err
	}
	r.foldCounts(acc)
	var res *Result
	if r.Done < opt.Trials {
		res = acc.partialResult("os", g, opt.Seed, opt.Trials, r.Done, opt.Anchor)
	} else {
		res = acc.result("os", opt.Trials)
	}
	probeFinish(opt.Probe, res)
	return res, nil
}

// OSOnWorld runs one deterministic Ordering Sampling pass over a concrete
// possible world and returns its maximum weighted butterfly set. This is
// the per-world search inside OS, exposed so tests can verify it against
// brute-force enumeration on the same world, which makes the OS pruning
// logic checkable without any statistics.
func OSOnWorld(g *bigraph.Graph, w *possible.World, opt OSOptions) butterfly.MaxSet {
	idx := acquireOSIndex(g, opt)
	defer idx.release()
	var sMB butterfly.MaxSet
	idx.runTrial(&sMB, w.Has)
	return sMB
}

// osIndex is the flat-memory Ordering Sampling trial kernel: the
// per-graph precomputation (SoA edge snapshot, w̄) plus per-trial scratch
// laid out so a steady-state trial performs zero allocations.
//
//   - Edge presence is decided by comparing one raw generator word
//     against the snapshot's precomputed threshold (runTrialRNG), or by
//     an arbitrary oracle (runTrial) for the per-world variant and the
//     supervisor's audit trials.
//   - N̂_E(v) lives in one flat slice partitioned by the snapshot's CSR
//     offsets, each center vertex owning a region of capacity deg(v)
//     (the center side is chosen per graph by the snapshot; see
//     edgeSnapshot.flip).
//   - The angle tables A1/A2 are pool entries indexed through a
//     generation-stamped open-addressing table, so per-trial reset is a
//     generation bump.
type osIndex struct {
	g    *bigraph.Graph
	opt  OSOptions
	snap *edgeSnapshot

	// Flat N̂_E: center vertex v's live processed edges are
	// liveFlat[snap.liveOff[v] : snap.liveOff[v]+n] where n is live[v].n if
	// live[v].gen matches liveCur and 0 otherwise — the same
	// generation-stamp trick as the angle table, so per-trial reset of
	// every live list is one counter bump instead of a touched-vertex walk.
	liveFlat []liveEdge
	live     []liveMeta
	liveCur  uint32

	// Angle entry pool, indexed through tab. Callers hold POOL INDICES,
	// never *angleEntry pointers, across entryFor calls: the pool grows by
	// append, and a reallocation would leave an in-flight pointer aiming
	// at the stale backing array (the seed implementation returned
	// pointers and was safe only because no caller held one across a
	// call — a hazard, not a guarantee).
	tab   angleTable
	pool  []angleEntry
	poolN int

	// rng is the worker-local per-trial stream runTrialSeeded derives
	// into, so deriving costs no allocation.
	rng randx.RNG

	// maxList tracks the pool indices whose bestWeight equals the running
	// w_max, in ascending pool order, so the specialized path materializes
	// only those entries instead of rewalking the whole pool. maxGen
	// invalidates stale angleEntry.mark stamps in O(1) whenever w_max
	// rises (and across trials); it is monotone, so a stamp can never
	// alias a later generation.
	maxList []int32
	maxGen  uint64

	// anglesGenerated counts the angles produced by the last runTrial —
	// instrumentation for verifying the Lemma V.1 per-trial complexity
	// (O(min(Σ_L d̄², Σ_R d̄²)) angle work) in tests. It is maintained only
	// while instrumented is set (the complexity tests set it), so the hot
	// loop pays nothing for it in production runs.
	instrumented    bool
	anglesGenerated int
}

// angleClasses is the Table II bookkeeping of one endpoint pair: the
// largest (w1, mids1) and second-largest (w2, mids2) angle weight
// classes, each with the middle vertices attaining it. The global kernel
// (angleEntry) and the anchored kernel (anchorPartner) both embed it.
type angleClasses struct {
	w1    float64
	mids1 []bigraph.VertexID
	w2    float64
	mids2 []bigraph.VertexID
}

// angleEntry is one endpoint pair's angle bookkeeping: its Table II
// classes, plus every angle with KeepAllAngles. The pair vertices live on
// the snapshot's pairing side and the middles on its center side
// (left/right assignment depends on edgeSnapshot.flip).
type angleEntry struct {
	angleClasses
	u1, u2 bigraph.VertexID // pairing-side endpoint pair, u1 < u2
	all    []midW           // only with KeepAllAngles
	// mark stamps membership in osIndex.maxList for the current maxGen;
	// stale stamps are dead by monotonicity and never need clearing.
	mark uint64
}

type midW struct {
	mid bigraph.VertexID
	w   float64
}

// liveMeta is one center vertex's live-list length, valid only when its
// generation stamp matches osIndex.liveCur. Packed into 8 bytes so the
// hot path reads length and validity in a single load.
type liveMeta struct {
	n   int32
	gen uint32
}

func newOSIndex(g *bigraph.Graph, opt OSOptions) *osIndex {
	return newOSIndexFromSnapshot(g, opt, newEdgeSnapshot(g))
}

func newOSIndexFromSnapshot(g *bigraph.Graph, opt OSOptions, snap *edgeSnapshot) *osIndex {
	x := &osIndex{
		g:        g,
		opt:      opt,
		snap:     snap,
		liveFlat: make([]liveEdge, snap.numEdges()),
		live:     make([]liveMeta, len(snap.liveOff)-1),
		liveCur:  1,
		tab:      newAngleTable(minAngleTableCap),
	}
	x.tab.tok = snap.tok // Zobrist pair hashing, shared with the inlined probe
	return x
}

// trialKernel is the per-trial step of the Ordering Sampling run loop
// (OS, the LocalExecutor's ExecOS workers and the OLS preparing phase):
// it samples world id from its stream derived from root and fills sMB
// with that world's maximum butterfly set. Its two implementations are
// the global osIndex and the anchor-restricted anchoredIndex; everything
// around the step — trial streams, accumulation, checkpoints, executors
// and telemetry — is shared.
type trialKernel interface {
	// runTrialSeeded runs one trial. scanned is how many positions of
	// the kernel's ordered scan the trial covered and fellBack whether it
	// crossed the calibrated prefix (telemetry only).
	runTrialSeeded(root *randx.RNG, id uint64, sMB *butterfly.MaxSet) (scanned int, fellBack bool)
	// scanLen is the ordered-scan length the trial meter measures the
	// scanned/pruned split against (0: the kernel has no ordered scan).
	scanLen() int
	// release hands the kernel back once its run is over.
	release()
}

// acquireKernel returns the trial kernel opt selects: the anchored
// kernel for an anchored run, which builds no global snapshot, and the
// free-listed global kernel otherwise.
func acquireKernel(g *bigraph.Graph, opt OSOptions) trialKernel {
	if opt.Anchor.Kind != 0 {
		return newAnchoredIndex(g, opt.Anchor)
	}
	return acquireOSIndex(g, opt)
}

// acquireOSIndex returns a global kernel over g's cached calibrated
// snapshot, reusing a previously released kernel when the snapshot's free
// list has one: repeat runs and parallel chunks over the same graph stop
// paying the ~1MB per-kernel build, which is what held the parallel path
// at ~40 allocs per trial.
func acquireOSIndex(g *bigraph.Graph, opt OSOptions) *osIndex {
	snap := snapshotFor(g)
	if k := snap.getKernel(); k != nil {
		k.opt = opt
		k.instrumented = false
		return k
	}
	return newOSIndexFromSnapshot(g, opt, snap)
}

// release returns a kernel obtained from acquireOSIndex to its
// snapshot's free list. The options are cleared so a listed kernel does
// not retain caller hooks (OnTrial/Interrupt/Probe closures) beyond its
// run.
func (x *osIndex) release() {
	x.opt = OSOptions{}
	x.snap.putKernel(x)
}

func (x *osIndex) scanLen() int { return x.snap.numEdges() }

func (x *osIndex) resetTrial() {
	x.liveCur++
	if x.liveCur == 0 { // generation wrapped: stale stamps could alias
		for i := range x.live {
			x.live[i].gen = 0
		}
		x.liveCur = 1
	}
	x.tab.reset()
	x.poolN = 0
	x.anglesGenerated = 0
	x.maxList = x.maxList[:0]
	x.maxGen++
}

// entryFor returns the pool index of the (possibly new) angle entry for
// endpoint pair {a, b}, reusing pooled storage across trials. It returns
// an index rather than a pointer: the pool may reallocate on growth, and
// an index stays valid where a pointer would dangle.
func (x *osIndex) entryFor(a, b bigraph.VertexID) int32 {
	if a > b {
		a, b = b, a
	}
	key := uint64(a)<<32 | uint64(b)
	i, found := x.tab.getOrPut(key, int32(x.poolN))
	if found {
		return i
	}
	if x.poolN == len(x.pool) {
		x.pool = append(x.pool, angleEntry{})
	}
	e := &x.pool[i]
	e.mids1 = e.mids1[:0]
	e.mids2 = e.mids2[:0]
	e.all = e.all[:0]
	e.u1, e.u2 = a, b
	e.w1, e.w2 = math.Inf(-1), math.Inf(-1)
	x.poolN++
	return i
}

// update applies the Table II cases for a new angle of weight w with
// middle mid.
func (e *angleClasses) update(w float64, mid bigraph.VertexID) {
	switch {
	case w > e.w1:
		// Promote: old A1 becomes A2.
		e.w2 = e.w1
		e.mids2 = append(e.mids2[:0], e.mids1...)
		e.w1 = w
		e.mids1 = append(e.mids1[:0], mid)
	case w == e.w1:
		e.mids1 = append(e.mids1, mid)
	case w > e.w2:
		e.w2 = w
		e.mids2 = append(e.mids2[:0], mid)
	case w == e.w2:
		e.mids2 = append(e.mids2, mid)
	default:
		// w < w2: ignored, it can never be part of a maximum butterfly
		// for this endpoint pair (Section V-C correctness argument).
	}
}

// updateDropA2 is the deliberately broken Table II update behind
// OSOptions.DropA2: it keeps only the A1 class, so bestWeight can never
// report an A1+A2 combination and those butterflies are lost. Kept as a
// separate method so the correct update's signature (exercised directly
// by angle-table tests) stays untouched.
func (e *angleClasses) updateDropA2(w float64, mid bigraph.VertexID) {
	switch {
	case w > e.w1:
		e.w1 = w
		e.mids1 = append(e.mids1[:0], mid)
	case w == e.w1:
		e.mids1 = append(e.mids1, mid)
	}
}

// bestWeight returns the largest butterfly weight this endpoint pair can
// currently produce, or -Inf if it cannot produce one (fewer than two
// angles retained).
func (e *angleClasses) bestWeight() float64 {
	if len(e.mids1) >= 2 {
		return 2 * e.w1
	}
	if len(e.mids1) == 1 && len(e.mids2) >= 1 {
		return e.w1 + e.w2
	}
	return math.Inf(-1)
}

// runTrialSeeded derives the trial's stream from (root, id) into the
// kernel-local generator and runs the threshold-sampling trial. This is
// the production hot path: it performs zero allocations at steady state
// and its Result contribution is bit-identical to the seed
// implementation's rng.Bernoulli closure over a Derive(id) stream.
// fellBack reports that the trial crossed the snapshot's calibrated
// prefix boundary (the prefix-sufficiency check failed and the scan
// continued into the tail) — a telemetry signal, never a correctness
// one, since the tail scan is exact.
func (x *osIndex) runTrialSeeded(root *randx.RNG, id uint64, sMB *butterfly.MaxSet) (scanned int, fellBack bool) {
	root.DeriveInto(id, &x.rng)
	return x.runTrialRNG(sMB, &x.rng)
}

// runTrialRNG executes lines 4–20 of Algorithm 2 with edge presence
// decided by the snapshot's precomputed thresholds against rng's raw
// words, generated rngBlock positions at a time (see below). Draw
// consumption is positional — the k-th p ∈ (0,1) snapshot position of
// the trial compares against the k-th raw word, no draw for p ∈ {0,1} —
// which is the exact stream consumption of randx.Bernoulli, so Results
// are bit-identical to the seed implementation. It returns the snapshot
// position the scan stopped at (the benchmark harness reports the
// remainder as pruned) and whether the scan fell back past the
// calibrated prefix.
//
// The production configuration (no ablations, no instrumentation) runs
// the specialized v2 loop:
//
//   - Block RNG: the block's raw words are generated into a stack
//     buffer in one burst, then every position is tested branch-free
//     against its normalized admission threshold ((word>>11 − th) >> 63),
//     producing one presence bitmask per block; present positions are
//     visited via trailing-zero iteration. Zero-support and p=0 edges
//     have threshold 0 and never set a bit, but still consume their
//     word positionally, so the schedule matches randx.Bernoulli
//     draw for draw.
//   - Support-sharpened pruning: stops use wBarS (top-3 support-positive
//     weights) instead of the global wBar, and angle work is cut by the
//     wBar2S bounds — every skip is provably inert (the skipped work
//     could neither raise nor tie the final w_max; see
//     docs/ALGORITHMS.md), so Results stay bit-identical.
//   - Truncated prefix: the block-entry stop check at the calibrated
//     boundary prefixLen doubles as the prefix-sufficiency bound; when
//     it fails the scan simply continues into the tail (exact fallback)
//     and the trial is flagged fellBack for telemetry.
//
// The ablation and instrumentation paths share the generic admitEdge
// walk instead — identical Results; only the instruction stream differs.
func (x *osIndex) runTrialRNG(sMB *butterfly.MaxSet, rng *randx.RNG) (scanned int, fellBack bool) {
	if x.opt.KeepAllAngles || x.opt.DropA2 || x.instrumented {
		return x.runTrialRNGGeneric(sMB, rng), false
	}
	snap := x.snap
	if snap.barren {
		// No edge lies on any backbone butterfly: every possible world's
		// maximum set is empty, and no draws are needed (each trial
		// re-derives its stream, so skipping them is invisible).
		sMB.Reset()
		return 0, false
	}
	x.resetTrial()
	sMB.Reset()
	prune := !x.opt.DisableEdgePrune
	wBarS, wBar2S := snap.wBarS, snap.wBar2S
	wMax := math.Inf(-1)

	// Local generator copy: every draw is inlined register arithmetic.
	// The stream position after the trial is irrelevant (each trial
	// re-derives), so the copy never needs writing back. Pool and touched
	// bookkeeping likewise run on locals and are stored back once after
	// the scan.
	lr := *rng
	ws, pcs := snap.w, snap.pc
	admitTh, wordOf, ndraws := snap.admitTh, snap.wordOf, snap.ndraws
	liveFlat, live, liveOff := x.liveFlat, x.live, snap.liveOff
	liveCur := x.liveCur
	toks := snap.tok
	tb := &x.tab
	pool, poolN := x.pool, x.poolN
	negInf := math.Inf(-1)

	n := len(ws)
	limit := n
	if prune {
		limit = snap.prefixLen // block-aligned, or n
	}
	// words is the block draw buffer. Deterministic positions may index
	// one slot past the block's generated words (wordOf points at the
	// next undetermined position); the read is harmless garbage — their
	// sentinel thresholds (0 / 2^53) decide regardless of the word — so
	// the mask loop stays branch-free.
	var words [rngBlock]uint64
	scanned = n

scan:
	for b := 0; b < n; {
		if prune && ws[b]+wBarS < wMax { // line 9, block granularity
			scanned = b
			break
		}
		if b == limit {
			// The sufficiency check above did not stop the scan at the
			// calibrated boundary: this trial needs the tail. The scan
			// continues exactly as if no prefix existed.
			fellBack = true
		}
		be := b + rngBlock
		if be > n {
			be = n
		}
		nd := int(ndraws[b>>rngBlockShift])
		for k := 0; k < nd; k++ {
			words[k] = lr.Uint64()
		}
		// Branch-free batched threshold test: bit k of mask is set iff
		// position b+k is present. Both operands are < 2^63 (words are
		// 53-bit after the shift, thresholds normalized to ≤ 2^53), so
		// the sign of the subtraction is exactly the comparison.
		var mask uint64
		ath := admitTh[b:be]
		wof := wordOf[b:be]
		for k := 0; k < len(ath); k++ {
			u := words[wof[k]] >> 11
			mask |= ((u - ath[k]) >> 63) << uint(k)
		}
		for mask != 0 {
			k := bits.TrailingZeros64(mask)
			mask &= mask - 1
			i := b + k
			w := ws[i]
			if prune && w+wBarS < wMax { // line 9, exact position
				scanned = i
				break scan
			}
			// Lines 10–14, inlined from admitEdge/entryFor. ui is the
			// pairing endpoint, vj the center (middle) endpoint.
			uvp := pcs[i]
			ui, vj := bigraph.VertexID(uvp>>32), bigraph.VertexID(uvp&0xffffffff)
			base := liveOff[vj]
			lm := live[vj]
			nLive := lm.n
			if lm.gen != liveCur {
				nLive = 0
			}
			tu := toks[ui]
			for s := base; s < base+nLive; s++ {
				hb := &liveFlat[s]
				angleW := w + hb.w // line 11: ∠_new = e_a ⊕ e_b
				if angleW+wBar2S < wMax {
					// Live entries are appended in descending weight
					// order, so every later partner forms a lighter
					// angle; none can complete a butterfly at w_max
					// (the completing angle is bounded by wBar2S).
					break
				}
				uk := hb.to
				if uk == ui {
					continue
				}
				a, b := ui, uk
				if a > b {
					a, b = b, a
				}
				key := uint64(a)<<32 | uint64(b)
				// angleTable.getOrPut, manually inlined with the Zobrist
				// hash (symmetric in the pair, so it skips the canonical
				// ordering and the multiply chain of mix64; the partner's
				// token rides in the liveEdge). Must stay
				// position-compatible with angleTable.hash — grow()
				// re-probes through it.
				h := (tu ^ hb.tok) & tb.mask
				var ei int32
				for {
					sl := &tb.slots[h]
					if sl.gen != tb.cur {
						// Miss: claim the slot and a pool entry.
						ei = int32(poolN)
						if (tb.live+1)*4 > len(tb.slots)*3 {
							tb.grow()
							tb.put(key, ei)
						} else {
							*sl = atSlot{key: key, val: ei, gen: tb.cur}
							tb.live++
						}
						if poolN == len(pool) {
							pool = append(pool, angleEntry{})
						}
						e := &pool[ei]
						e.mids1 = e.mids1[:0]
						e.mids2 = e.mids2[:0]
						e.all = e.all[:0]
						e.u1, e.u2 = a, b
						e.w1, e.w2 = negInf, negInf
						poolN++
						break
					}
					if sl.key == key {
						ei = sl.val
						break
					}
					h = (h + 1) & tb.mask
				}
				ent := &pool[ei]
				ent.update(angleW, vj) // line 12, Table II
				if bw := ent.bestWeight(); bw > wMax {
					wMax = bw // line 13
					x.maxGen++
					x.maxList = append(x.maxList[:0], ei)
					ent.mark = x.maxGen
				} else if bw == wMax && bw != negInf && ent.mark != x.maxGen {
					// This pair ties the running maximum: record it once,
					// keeping maxList in ascending pool order so the
					// materialization order matches the seed's pool walk.
					ent.mark = x.maxGen
					ml := x.maxList
					j := len(ml)
					ml = append(ml, ei)
					for j > 0 && ml[j-1] > ei {
						ml[j] = ml[j-1]
						j--
					}
					ml[j] = ei
					x.maxList = ml
				}
			}
			if 2*w+wBar2S >= wMax {
				liveFlat[base+nLive] = liveEdge{to: ui, w: w, tok: tu} // line 14
				live[vj] = liveMeta{n: nLive + 1, gen: liveCur}
			}
			// else: every future angle through this edge is ≤ 2w (its
			// partner is no heavier) and completes to < w_max — the
			// entry could never contribute, so it is not recorded. The
			// region slot stays free for the next recorded edge.
		}
		b = be
	}
	x.pool, x.poolN = pool, poolN
	x.materializeList(sMB, wMax)
	return scanned, fellBack
}

// runTrialRNGGeneric is the unspecialized threshold trial: same
// algorithm, same Results, with angle admission routed through admitEdge
// so the ablation branches and the anglesGenerated instrumentation stay
// in one place.
func (x *osIndex) runTrialRNGGeneric(sMB *butterfly.MaxSet, rng *randx.RNG) (scanned int) {
	x.resetTrial()
	sMB.Reset()
	snap := x.snap
	prune := !x.opt.DisableEdgePrune
	wMax := math.Inf(-1)

	i := 0
	for ; i < len(snap.id); i++ {
		if prune && snap.w[i]+snap.wBar < wMax { // line 9
			break
		}
		th := snap.thresh[i]
		if th == randx.BernoulliNever {
			continue
		}
		if th != randx.BernoulliAlways && rng.Uint64()>>11 >= th {
			continue
		}
		wMax = x.admitEdge(i, wMax)
	}
	x.materialize(sMB, wMax)
	return i
}

// runTrial executes the same trial against an arbitrary edge presence
// oracle — World.Has for the deterministic per-world variant, or a
// Bernoulli closure for callers that manage their own streams (the
// supervisor's audit trials).
func (x *osIndex) runTrial(sMB *butterfly.MaxSet, present func(bigraph.EdgeID) bool) (scanned int) {
	x.resetTrial()
	sMB.Reset()
	snap := x.snap
	prune := !x.opt.DisableEdgePrune
	wMax := math.Inf(-1)

	i := 0
	for ; i < len(snap.id); i++ {
		if prune && snap.w[i]+snap.wBar < wMax { // line 9
			break
		}
		if !present(snap.id[i]) {
			continue
		}
		wMax = x.admitEdge(i, wMax)
	}
	x.materialize(sMB, wMax)
	return i
}

// admitEdge processes the live edge at snapshot position i (lines 10–14):
// form an angle with every live edge already recorded at its center
// endpoint, push each through the Table II update, lift w_max, and append
// the edge to its center vertex's flat N̂_E region.
func (x *osIndex) admitEdge(i int, wMax float64) float64 {
	snap := x.snap
	ui, vj, w := snap.prt[i], snap.ctr[i], snap.w[i]
	base := snap.liveOff[vj]
	lm := x.live[vj]
	n := lm.n
	if lm.gen != x.liveCur {
		n = 0
	}
	for _, hb := range x.liveFlat[base : base+n] { // line 10: e_b = (v_j, u_k)
		uk := hb.to
		if uk == ui {
			continue // cannot happen for simple graphs, but be safe
		}
		angleW := w + hb.w // line 11: ∠_new = e_a ⊕ e_b
		if x.instrumented {
			x.anglesGenerated++
		}
		ei := x.entryFor(ui, uk)
		ent := &x.pool[ei] // taken AFTER entryFor: the pool may have grown
		if x.opt.KeepAllAngles {
			ent.all = append(ent.all, midW{mid: vj, w: angleW})
		}
		if x.opt.DropA2 {
			ent.updateDropA2(angleW, vj) // fault injection: A2 lost
		} else {
			ent.update(angleW, vj) // line 12, Table II
		}
		if bw := ent.bestWeight(); bw > wMax {
			wMax = bw // line 13
		}
	}
	x.liveFlat[base+n] = liveEdge{to: ui, w: w, tok: snap.tok[ui]} // line 14
	x.live[vj] = liveMeta{n: n + 1, gen: x.liveCur}
	return wMax
}

// emit adds one maximum butterfly, mapping the kernel's pair/middle roles
// back to the graph's left/right sides: the pair vertices are left and
// the middles right unless the snapshot flipped the center side.
// butterfly.New canonicalizes within each side, so the emitted butterfly
// is identical to the unflipped (seed/oracle) orientation.
func (x *osIndex) emit(sMB *butterfly.MaxSet, ent *angleEntry, m1, m2 bigraph.VertexID, w float64) {
	if x.snap.flip {
		sMB.Add(butterfly.New(m1, m2, ent.u1, ent.u2), w)
		return
	}
	sMB.Add(butterfly.New(ent.u1, ent.u2, m1, m2), w)
}

// materializeList emits the butterflies of weight w_max from the
// specialized path's candidate list instead of rewalking the whole pool:
// maxList holds, in ascending pool order, exactly the entries whose
// bestWeight equals the final w_max (entries join when they set or tie
// the running maximum; the list is cleared whenever the maximum rises, so
// no stale entry survives). Emission per entry is materialize's, so the
// butterflies come out in the same order as the seed's pool walk.
func (x *osIndex) materializeList(sMB *butterfly.MaxSet, wMax float64) {
	if math.IsInf(wMax, -1) {
		return // no butterfly in this world
	}
	for _, ei := range x.maxList {
		x.emitMax(sMB, &x.pool[ei], wMax)
	}
}

// materialize emits exactly the butterflies of weight w_max (lines
// 15–20).
func (x *osIndex) materialize(sMB *butterfly.MaxSet, wMax float64) {
	if math.IsInf(wMax, -1) {
		return // no butterfly in this world
	}
	for i := 0; i < x.poolN; i++ {
		ent := &x.pool[i]
		if !x.opt.KeepAllAngles {
			x.emitMax(sMB, ent, wMax)
			continue
		}
		// Ablation path: derive the maxima from the full angle list,
		// which must agree with the A1/A2 path.
		for a := 0; a < len(ent.all); a++ {
			for b := a + 1; b < len(ent.all); b++ {
				if ent.all[a].mid == ent.all[b].mid {
					continue
				}
				if w := ent.all[a].w + ent.all[b].w; w == wMax {
					x.emit(sMB, ent, ent.all[a].mid, ent.all[b].mid, wMax)
				}
			}
		}
	}
}

// emitMax emits the butterflies of weight wMax that ent's angle classes
// form: every pair of A1 middles (line 16), or the single A1 middle with
// each A2 middle (line 18).
func (x *osIndex) emitMax(sMB *butterfly.MaxSet, ent *angleEntry, wMax float64) {
	switch {
	case len(ent.mids1) >= 2 && 2*ent.w1 == wMax: // line 16
		for a := 0; a < len(ent.mids1); a++ {
			for b := a + 1; b < len(ent.mids1); b++ {
				x.emit(sMB, ent, ent.mids1[a], ent.mids1[b], wMax)
			}
		}
	case len(ent.mids1) == 1 && len(ent.mids2) >= 1 && ent.w1+ent.w2 == wMax: // line 18
		for _, m2 := range ent.mids2 {
			x.emit(sMB, ent, ent.mids1[0], m2, wMax)
		}
	}
}
