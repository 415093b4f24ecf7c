package core

import (
	"math"
	"testing"
)

// TestAngleTableUpdateCases reproduces Table II of the paper: the five
// updating cases of the A1/A2 angle classes when a new angle of weight
// w(∠_new) arrives.
func TestAngleTableUpdateCases(t *testing.T) {
	mk := func() *angleEntry {
		e := &angleEntry{u1: 0, u2: 1, angleClasses: angleClasses{w1: math.Inf(-1), w2: math.Inf(-1)}}
		e.update(5, 10) // A1 = {∠(mid=10)} at weight 5
		e.update(3, 11) // A2 = {∠(mid=11)} at weight 3
		return e
	}

	t.Run("w>w(A1) promotes A1 to A2", func(t *testing.T) {
		e := mk()
		e.update(7, 12)
		if e.w1 != 7 || len(e.mids1) != 1 || e.mids1[0] != 12 {
			t.Fatalf("A1 = (%v, %v), want (7, [12])", e.w1, e.mids1)
		}
		if e.w2 != 5 || len(e.mids2) != 1 || e.mids2[0] != 10 {
			t.Fatalf("A2 = (%v, %v), want (5, [10])", e.w2, e.mids2)
		}
	})

	t.Run("w=w(A1) joins A1", func(t *testing.T) {
		e := mk()
		e.update(5, 12)
		if e.w1 != 5 || len(e.mids1) != 2 {
			t.Fatalf("A1 = (%v, %v), want weight 5 with 2 angles", e.w1, e.mids1)
		}
		if e.w2 != 3 || len(e.mids2) != 1 {
			t.Fatalf("A2 = (%v, %v), want unchanged (3, [11])", e.w2, e.mids2)
		}
	})

	t.Run("w(A2)<w<w(A1) replaces A2", func(t *testing.T) {
		e := mk()
		e.update(4, 12)
		if e.w1 != 5 || len(e.mids1) != 1 {
			t.Fatalf("A1 = (%v, %v), want unchanged", e.w1, e.mids1)
		}
		if e.w2 != 4 || len(e.mids2) != 1 || e.mids2[0] != 12 {
			t.Fatalf("A2 = (%v, %v), want (4, [12])", e.w2, e.mids2)
		}
	})

	t.Run("w=w(A2) joins A2", func(t *testing.T) {
		e := mk()
		e.update(3, 12)
		if e.w2 != 3 || len(e.mids2) != 2 {
			t.Fatalf("A2 = (%v, %v), want weight 3 with 2 angles", e.w2, e.mids2)
		}
	})

	t.Run("w<w(A2) is ignored", func(t *testing.T) {
		e := mk()
		e.update(2, 12)
		if e.w1 != 5 || len(e.mids1) != 1 || e.w2 != 3 || len(e.mids2) != 1 {
			t.Fatalf("entry changed on sub-A2 weight: A1=(%v,%v) A2=(%v,%v)", e.w1, e.mids1, e.w2, e.mids2)
		}
	})
}

// TestAngleTableOpenAddressing exercises the generation-stamped
// open-addressing index underneath the kernel: inserts, probes, growth
// past the load factor, and the O(1) generation-bump reset.
func TestAngleTableOpenAddressing(t *testing.T) {
	tab := newAngleTable(0)
	if len(tab.slots) != minAngleTableCap {
		t.Fatalf("empty hint capacity = %d, want %d", len(tab.slots), minAngleTableCap)
	}
	// Insert enough keys to force several growths.
	const n = 500
	key := func(i int) uint64 { return uint64(i)*2654435761 + 1 }
	for i := 0; i < n; i++ {
		if _, ok := tab.get(key(i)); ok {
			t.Fatalf("key %d present before insertion", i)
		}
		tab.put(key(i), int32(i))
	}
	for i := 0; i < n; i++ {
		v, ok := tab.get(key(i))
		if !ok || v != int32(i) {
			t.Fatalf("get(key %d) = (%d, %v), want (%d, true)", i, v, ok, i)
		}
	}
	if 4*tab.live > 3*len(tab.slots) {
		t.Fatalf("load factor above 3/4: %d live in %d slots", tab.live, len(tab.slots))
	}

	// Reset invalidates everything without touching the slot arrays.
	capBefore := len(tab.slots)
	tab.reset()
	if tab.live != 0 || len(tab.slots) != capBefore {
		t.Fatalf("reset: live=%d cap=%d, want 0 and %d", tab.live, len(tab.slots), capBefore)
	}
	for i := 0; i < n; i++ {
		if _, ok := tab.get(key(i)); ok {
			t.Fatalf("key %d survived reset", i)
		}
	}

	// New generation reuses the stale slots transparently.
	tab.put(key(3), 77)
	if v, ok := tab.get(key(3)); !ok || v != 77 {
		t.Fatalf("post-reset get = (%d, %v), want (77, true)", v, ok)
	}
}

// TestAngleTableGenerationWraparound forces the 32-bit generation counter
// to wrap and checks that stale stamps cannot alias the fresh generation.
func TestAngleTableGenerationWraparound(t *testing.T) {
	tab := newAngleTable(0)
	tab.put(42, 1)
	tab.cur = ^uint32(0) // next reset wraps
	tab.reset()
	if tab.cur != 1 {
		t.Fatalf("wrapped generation = %d, want 1", tab.cur)
	}
	// The pre-wrap entry was stamped with generation 1 originally; after
	// the wrap-clear it must be gone even though cur is 1 again.
	if _, ok := tab.get(42); ok {
		t.Fatal("stale entry aliased the wrapped generation")
	}
	tab.put(42, 9)
	if v, ok := tab.get(42); !ok || v != 9 {
		t.Fatalf("post-wrap insert = (%d, %v), want (9, true)", v, ok)
	}
}

// TestAngleTableCollisions drives many keys into the same probe
// neighborhood (the table hashes, so use enough keys to guarantee
// clustering at minimum capacity) and checks linear probing resolves them.
func TestAngleTableCollisions(t *testing.T) {
	tab := newAngleTable(0)
	// More keys than minAngleTableCap/2 guarantees probe chains exist.
	for i := 0; i < minAngleTableCap/2+8; i++ {
		tab.put(uint64(i), int32(i))
	}
	for i := 0; i < minAngleTableCap/2+8; i++ {
		if v, ok := tab.get(uint64(i)); !ok || v != int32(i) {
			t.Fatalf("get(%d) = (%d, %v) under collisions", i, v, ok)
		}
	}
}

// TestAngleEntryBestWeight covers the fast-butterfly-creation weight
// calculus of Section V-D.
func TestAngleEntryBestWeight(t *testing.T) {
	e := &angleEntry{angleClasses: angleClasses{w1: math.Inf(-1), w2: math.Inf(-1)}}
	if !math.IsInf(e.bestWeight(), -1) {
		t.Fatal("empty entry should produce -Inf")
	}
	e.update(5, 10)
	if !math.IsInf(e.bestWeight(), -1) {
		t.Fatal("single angle cannot form a butterfly")
	}
	e.update(3, 11)
	if got := e.bestWeight(); got != 8 {
		t.Fatalf("|A1|=1,|A2|=1: bestWeight = %v, want w1+w2 = 8", got)
	}
	e.update(5, 12)
	if got := e.bestWeight(); got != 10 {
		t.Fatalf("|A1|=2: bestWeight = %v, want 2·w1 = 10", got)
	}
}
