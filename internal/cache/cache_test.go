package cache

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func line(n uint64) mem.LineAddr { return mem.LineAddr(n * mem.LineSize) }

func TestNewArraySizing(t *testing.T) {
	a := NewArray(8<<20, 16, LRU) // paper baseline LLC: 8MB, 16-way
	if a.Sets() != 8192 || a.Ways() != 16 {
		t.Fatalf("8MB/16w array = %d sets x %d ways, want 8192x16", a.Sets(), a.Ways())
	}
	if a.SizeBytes() != 8<<20 {
		t.Fatalf("SizeBytes = %d", a.SizeBytes())
	}
}

func TestNewArrayPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewArray(0, 1, LRU) },
		func() { NewArray(64, 0, LRU) },
		func() { NewArray(3*64, 1, LRU) }, // 3 sets: not a power of two
		func() { NewArray(100, 1, LRU) },  // not line-divisible
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestInsertLookupInvalidate(t *testing.T) {
	a := NewArray(4*mem.LineSize, 2, LRU) // 2 sets x 2 ways
	if a.Contains(line(0)) {
		t.Fatal("empty array should not contain lines")
	}
	a.Insert(line(0), Exclusive)
	if got := a.Lookup(line(0)); got != Exclusive {
		t.Fatalf("Lookup = %v, want E", got)
	}
	if st := a.Invalidate(line(0)); st != Exclusive {
		t.Fatalf("Invalidate returned %v, want E", st)
	}
	if a.Contains(line(0)) || a.Occupied() != 0 {
		t.Fatal("line should be gone")
	}
	if st := a.Invalidate(line(0)); st != Invalid {
		t.Fatal("second invalidate should report Invalid")
	}
}

func TestLRUVictim(t *testing.T) {
	a := NewArray(4*mem.LineSize, 4, LRU) // 1 set x 4 ways
	for i := uint64(0); i < 4; i++ {
		a.Insert(line(i), Shared)
	}
	a.Touch(line(0)) // 0 becomes MRU; 1 is now LRU
	ev, evicted := a.Insert(line(9), Shared)
	if !evicted || ev.Line != line(1) {
		t.Fatalf("evicted %v (%v), want line 1", ev.Line, evicted)
	}
}

func TestEvictionDirtyFlag(t *testing.T) {
	a := NewArray(mem.LineSize, 1, LRU) // 1 set x 1 way
	a.Insert(line(0), Modified)
	ev, evicted := a.Insert(line(1), Shared)
	if !evicted || !ev.Dirty() || ev.State != Modified {
		t.Fatalf("eviction = %+v, want dirty M line", ev)
	}
	ev, evicted = a.Insert(line(2), Owned)
	if !evicted || ev.Dirty() {
		t.Fatalf("S eviction should be clean, got %+v", ev)
	}
	ev, _ = a.Insert(line(3), Shared)
	if !ev.Dirty() {
		t.Fatal("Owned lines are dirty and must write back")
	}
}

func TestDoubleInsertPanics(t *testing.T) {
	a := NewArray(4*mem.LineSize, 2, LRU)
	a.Insert(line(0), Shared)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double insert")
		}
	}()
	a.Insert(line(0), Modified)
}

func TestInsertInvalidStatePanics(t *testing.T) {
	a := NewArray(4*mem.LineSize, 2, LRU)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.Insert(line(0), Invalid)
}

func TestSetStateTransitions(t *testing.T) {
	a := NewArray(4*mem.LineSize, 2, LRU)
	a.Insert(line(0), Shared)
	if !a.SetState(line(0), Modified) {
		t.Fatal("SetState on present line failed")
	}
	if a.Lookup(line(0)) != Modified {
		t.Fatal("state not updated")
	}
	if a.SetState(line(5), Shared) {
		t.Fatal("SetState on absent line should fail")
	}
	// Setting Invalid removes.
	if !a.SetState(line(0), Invalid) || a.Contains(line(0)) || a.Occupied() != 0 {
		t.Fatal("SetState(Invalid) should remove the line")
	}
}

func TestDirectMappedConflicts(t *testing.T) {
	a := NewArray(4*mem.LineSize, 1, LRU) // 4 sets, direct-mapped
	a.Insert(line(0), Shared)
	// line(4) maps to the same set as line(0) in a 4-set array.
	ev, evicted := a.Insert(line(4), Shared)
	if !evicted || ev.Line != line(0) {
		t.Fatalf("direct-mapped conflict should evict line 0, got %v %v", ev, evicted)
	}
	// line(1) goes to a different set.
	if _, evicted := a.Insert(line(1), Shared); evicted {
		t.Fatal("no conflict expected in different set")
	}
}

func TestStateHelpers(t *testing.T) {
	if Invalid.Valid() || !Shared.Valid() {
		t.Fatal("Valid misclassifies")
	}
	if Shared.Dirty() || Exclusive.Dirty() || !Modified.Dirty() || !Owned.Dirty() {
		t.Fatal("Dirty misclassifies")
	}
	for st, want := range map[State]string{Invalid: "I", Shared: "S", Exclusive: "E", Owned: "O", Modified: "M"} {
		if st.String() != want {
			t.Fatalf("%v.String() = %q", uint8(st), st.String())
		}
	}
}

func TestBankSelect(t *testing.T) {
	// Consecutive lines round-robin across banks.
	for i := uint64(0); i < 64; i++ {
		if got := BankSelect(line(i), 16); got != int(i%16) {
			t.Fatalf("BankSelect(line %d) = %d, want %d", i, got, i%16)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-power-of-two banks")
		}
	}()
	BankSelect(line(0), 3)
}

func TestForEachDeterministic(t *testing.T) {
	a := NewArray(8*mem.LineSize, 2, LRU)
	for i := uint64(0); i < 6; i++ {
		a.Insert(line(i), Shared)
	}
	var first, second []mem.LineAddr
	a.ForEach(func(l mem.LineAddr, _ State) { first = append(first, l) })
	a.ForEach(func(l mem.LineAddr, _ State) { second = append(second, l) })
	if len(first) != 6 || len(second) != 6 {
		t.Fatalf("ForEach visited %d/%d lines, want 6", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatal("ForEach order not deterministic")
		}
	}
}

// Property: occupancy never exceeds capacity and matches a reference count,
// under arbitrary insert/invalidate sequences.
func TestOccupancyInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		a := NewArray(16*mem.LineSize, 2, LRU) // 8 sets x 2 ways
		ref := map[mem.LineAddr]bool{}
		for _, op := range ops {
			l := line(uint64(op % 64))
			if op&0x8000 != 0 {
				if st := a.Invalidate(l); st.Valid() != ref[l] {
					return false
				}
				delete(ref, l)
				continue
			}
			if a.Contains(l) {
				a.Touch(l)
				continue
			}
			ev, evicted := a.Insert(l, Shared)
			ref[l] = true
			if evicted {
				if !ref[ev.Line] {
					return false // evicted something we did not insert
				}
				delete(ref, ev.Line)
			}
		}
		if a.Occupied() != len(ref) {
			return false
		}
		if a.Occupied() > 16 {
			return false
		}
		// Everything in ref must still be present.
		for l := range ref {
			if !a.Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: LRU stack property — with a single set, re-inserting N distinct
// lines in order and then inserting one more evicts the least recently
// touched line.
func TestLRUStackProperty(t *testing.T) {
	f := func(touchIdx uint8) bool {
		a := NewArray(8*mem.LineSize, 8, LRU) // 1 set x 8 ways
		for i := uint64(0); i < 8; i++ {
			a.Insert(line(i), Shared)
		}
		keep := uint64(touchIdx % 8)
		// Touch all except one line; that one must be the victim.
		for i := uint64(0); i < 8; i++ {
			if i != keep {
				a.Touch(line(i))
			}
		}
		ev, evicted := a.Insert(line(100), Shared)
		return evicted && ev.Line == line(keep)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestStampRenormalizationPreservesLRUOrder saturates the 20-bit in-word
// recency stamp of one set and checks the victim ordering survives the
// renormalization to ranks (bit-identical to the former global-tick LRU).
func TestStampRenormalizationPreservesLRUOrder(t *testing.T) {
	a := NewArray(4*mem.LineSize, 4, LRU) // 1 set x 4 ways
	for i := uint64(0); i < 4; i++ {
		a.Insert(line(i), Shared)
	}
	// Force the stamp field past its 2^20-1 ceiling (several renorms).
	for i := 0; i < (1<<20)+50; i++ {
		a.Touch(line(uint64(i % 4)))
	}
	// Establish a known order: line 1 least recent, then 2, 3, 0.
	a.Touch(line(2))
	a.Touch(line(3))
	a.Touch(line(0))
	ev, evicted := a.Insert(line(9), Shared)
	if !evicted || ev.Line != line(1) {
		t.Fatalf("evicted %#x (%v), want line 1 after renormalization", uint64(ev.Line), evicted)
	}
}

// TestDemoteTieBreaksByLowestWay pins the demoted-class tie rule: two
// demoted ways both sit at stamp 0 and the victim scan must take the
// lowest way index, exactly as the pre-fold LRU did.
func TestDemoteTieBreaksByLowestWay(t *testing.T) {
	a := NewArray(4*mem.LineSize, 4, LRU)
	for i := uint64(0); i < 4; i++ {
		a.Insert(line(i), Shared)
	}
	for i := uint64(0); i < 4; i++ {
		a.Touch(line(i))
	}
	// Demote in high-to-low way order; the tie must still break low.
	a.DemoteWay(a.Probe(line(2)))
	a.DemoteWay(a.Probe(line(1)))
	ev, evicted := a.Insert(line(9), Shared)
	if !evicted || ev.Line != line(1) {
		t.Fatalf("evicted %#x (%v), want line 1 (lowest demoted way)", uint64(ev.Line), evicted)
	}
	// The other demoted way is next.
	ev, evicted = a.Insert(line(13), Shared)
	if !evicted || ev.Line != line(2) {
		t.Fatalf("second eviction %#x (%v), want line 2", uint64(ev.Line), evicted)
	}
}

// TestOversizedTagPanics pins the packed-slot address bound: tags beyond
// the 40-bit field must fail loudly on insert, not alias silently, in
// both slot layouts — and the largest admitted tag round-trips.
func TestOversizedTagPanics(t *testing.T) {
	for _, c := range []struct {
		sets, ways int
		over       mem.LineAddr
	}{
		{2, 2, mem.LineAddr(uint64(1) << 47)},
		{dmMinSets, 1, lineAddr(maxSlotTag + 1)}, // 4-byte words
	} {
		a := NewArray(int64(c.sets*c.ways)*mem.LineSize, c.ways, LRU)
		top := lineAddr(maxSlotTag)
		a.Insert(top, Modified)
		if a.Lookup(top) != Modified {
			t.Fatalf("%dx%d: top tag did not round-trip", c.sets, c.ways)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%dx%d: expected panic for a tag beyond 2^40", c.sets, c.ways)
				}
			}()
			a.Insert(c.over, Shared)
		}()
	}
}

// TestDirectMappedSlotBytes: a large direct-mapped array costs 4 bytes a
// slot plus a constant; an associative array of the same capacity keeps
// the 8-byte word its recency stamp needs.
func TestDirectMappedSlotBytes(t *testing.T) {
	const size = 262_144 * mem.LineSize
	alloc := func(ways int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := NewArray(size, ways, LRU)
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(a)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slots = size / mem.LineSize
	if got := alloc(1); got > 4*slots+4096 {
		t.Fatalf("direct-mapped array of %d sets allocated %d bytes, want at most 4 per slot + 4096", slots, got)
	}
	if got := alloc(8); got < 8*slots {
		t.Fatalf("8-way array of %d slots allocated %d bytes, want at least 8 per slot", slots, got)
	}
}

func TestRandomReplStaysInBounds(t *testing.T) {
	a := NewArray(8*mem.LineSize, 8, RandomRepl)
	for i := uint64(0); i < 8; i++ {
		a.Insert(line(i), Shared)
	}
	// Fill beyond capacity many times; occupancy stays at 8 and every
	// eviction is a line we inserted.
	for i := uint64(8); i < 200; i++ {
		ev, evicted := a.Insert(line(i), Shared)
		if !evicted {
			t.Fatal("full set must evict")
		}
		if !a.Contains(line(i)) {
			t.Fatal("inserted line missing")
		}
		if a.Contains(ev.Line) {
			t.Fatal("evicted line still present")
		}
		if a.Occupied() != 8 {
			t.Fatalf("occupancy %d, want 8", a.Occupied())
		}
	}
}

func TestIlog2(t *testing.T) {
	cases := map[uint64]int{1: 0, 2: 1, 3: 1, 4: 2, 1024: 10}
	for v, want := range cases {
		if got := ilog2(v); got != want {
			t.Errorf("ilog2(%d) = %d, want %d", v, got, want)
		}
	}
}
