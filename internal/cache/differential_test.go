package cache

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// The differential suite drives three implementations through identical
// randomized operation sequences and demands identical observable behaviour:
//
//   - a naive map-of-sets model (modelArray below) — the readable reference
//     semantics, independent of the packed-slot representation;
//   - an Array used through the line-addressed reference layer below
//     (Lookup/Touch/SetState/Insert/InsertNonTemporal/Invalidate);
//   - an Array used through the Way-handle fast path (Probe/ProbeTouch/
//     WayState/TouchWay/SetStateWay/InsertAt/DemoteWay).
//
// Rows cover both slot layouts: the 8-byte word and the 4-byte word of a
// direct-mapped array of at least dmMinSets sets. CI runs the suite under
// -race alongside the scheduler differential (DESIGN.md §7).

// The line-addressed reference layer. Each call re-finds the line by
// address and acts through the Way-handle API, so it serves both slot
// layouts; the unit tests in cache_test.go read more plainly through it.

// Sets returns the number of sets.
func (a *Array) Sets() int { return a.sets }

// Ways returns the associativity.
func (a *Array) Ways() int { return a.ways }

// Lookup returns the line's state without updating recency, or Invalid
// when absent.
func (a *Array) Lookup(line mem.LineAddr) State {
	if w := a.Probe(line); w != NoWay {
		return a.WayState(w)
	}
	return Invalid
}

// Touch marks the line most recently used, returning false when absent.
func (a *Array) Touch(line mem.LineAddr) bool {
	w := a.Probe(line)
	if w != NoWay {
		a.TouchWay(w)
	}
	return w != NoWay
}

// SetState updates a present line's state, returning false when absent.
// Setting Invalid removes the line.
func (a *Array) SetState(line mem.LineAddr, st State) bool {
	w := a.Probe(line)
	if w != NoWay {
		a.SetStateWay(w, st)
	}
	return w != NoWay
}

// Insert places an absent line, evicting a victim if the set is full.
// Inserting a present line panics: double insertion always indicates a
// protocol bug.
func (a *Array) Insert(line mem.LineAddr, st State) (ev Eviction, evicted bool) {
	_, ev, evicted = a.insert(line, st)
	return ev, evicted
}

// InsertNonTemporal inserts the line at LRU priority, the set's
// preferred victim.
func (a *Array) InsertNonTemporal(line mem.LineAddr, st State) (ev Eviction, evicted bool) {
	w, ev, evicted := a.insert(line, st)
	a.DemoteWay(w)
	return ev, evicted
}

func (a *Array) insert(line mem.LineAddr, st State) (Way, Eviction, bool) {
	if a.Probe(line) != NoWay {
		panic(fmt.Sprintf("cache: double insert of line %#x", uint64(line)))
	}
	return a.InsertAt(line, st)
}

// modelLine is one slot of the naive model.
type modelLine struct {
	line  mem.LineAddr
	state State
	used  uint64
	valid bool
}

// modelArray reimplements the array contract with straightforward code: a
// slice of sets, each a positional slice of ways, LRU by explicit stamps.
type modelArray struct {
	sets, ways int
	shift      uint
	tick       uint64
	slots      [][]modelLine
}

func newModelArray(sets, ways int, shift uint) *modelArray {
	m := &modelArray{sets: sets, ways: ways, shift: shift, slots: make([][]modelLine, sets)}
	for i := range m.slots {
		m.slots[i] = make([]modelLine, ways)
	}
	return m
}

func (m *modelArray) set(line mem.LineAddr) int {
	return int((uint64(line) / mem.LineSize >> m.shift) & uint64(m.sets-1))
}

func (m *modelArray) find(line mem.LineAddr) *modelLine {
	for w := range m.slots[m.set(line)] {
		l := &m.slots[m.set(line)][w]
		if l.valid && l.line == line {
			return l
		}
	}
	return nil
}

func (m *modelArray) lookup(line mem.LineAddr) State {
	if l := m.find(line); l != nil {
		return l.state
	}
	return Invalid
}

func (m *modelArray) touch(line mem.LineAddr) bool {
	l := m.find(line)
	if l == nil {
		return false
	}
	if m.ways > 1 {
		m.tick++
		l.used = m.tick
	}
	return true
}

func (m *modelArray) setState(line mem.LineAddr, st State) bool {
	l := m.find(line)
	if l == nil {
		return false
	}
	if st == Invalid {
		*l = modelLine{}
		return true
	}
	l.state = st
	return true
}

func (m *modelArray) invalidate(line mem.LineAddr) State {
	l := m.find(line)
	if l == nil {
		return Invalid
	}
	st := l.state
	*l = modelLine{}
	return st
}

// insert mirrors the contract: first invalid way, else the LRU victim
// (lowest stamp, lowest way on ties).
func (m *modelArray) insert(line mem.LineAddr, st State, demote bool) (ev Eviction, evicted bool) {
	s := m.set(line)
	victim := -1
	for w := range m.slots[s] {
		if !m.slots[s][w].valid {
			victim = w
			break
		}
	}
	if victim == -1 {
		victim = 0
		for w := 1; w < m.ways; w++ {
			if m.slots[s][w].used < m.slots[s][victim].used {
				victim = w
			}
		}
		v := &m.slots[s][victim]
		ev, evicted = Eviction{Line: v.line, State: v.state}, true
	}
	l := &m.slots[s][victim]
	*l = modelLine{line: line, state: st, valid: true}
	if m.ways > 1 {
		m.tick++
		l.used = m.tick
	}
	if demote {
		l.used = 0
	}
	return ev, evicted
}

func (m *modelArray) occupied() int {
	n := 0
	for s := range m.slots {
		for w := range m.slots[s] {
			if m.slots[s][w].valid {
				n++
			}
		}
	}
	return n
}

// dump returns the model contents in the array's deterministic set-major
// order (within a set, any way order — compared as per-line maps).
func (m *modelArray) dump() map[mem.LineAddr]State {
	out := map[mem.LineAddr]State{}
	for s := range m.slots {
		for w := range m.slots[s] {
			if m.slots[s][w].valid {
				out[m.slots[s][w].line] = m.slots[s][w].state
			}
		}
	}
	return out
}

func runArrayDifferential(t *testing.T, sets, ways int, shift uint, seed uint64, ops int) {
	t.Helper()
	size := int64(sets) * int64(ways) * mem.LineSize
	ref := NewArray(size, ways, LRU)
	fast := NewArray(size, ways, LRU)
	if shift > 0 {
		ref = NewBankedArray(size, ways, LRU, shift)
		fast = NewBankedArray(size, ways, LRU, shift)
	}
	model := newModelArray(sets, ways, shift)
	rng := sim.NewRNG(seed)

	// Address pool ~2x capacity so sets conflict. Tags span the whole
	// 40-bit field, and on banked rows carry a non-zero bank id in the
	// low shift bits, so every tag bit a slot word keeps must round-trip
	// through ForEach and eviction reports.
	bank := uint64(0x5555) & (1<<shift - 1)
	lines := make([]mem.LineAddr, 2*sets*ways+3)
	for i := range lines {
		lines[i] = lineAddr(rng.Uint64n(maxSlotTag+1)&^(1<<shift-1) | bank)
	}

	states := []State{Shared, Exclusive, Owned, Modified}
	for i := 0; i < ops; i++ {
		line := lines[rng.Uint64n(uint64(len(lines)))]
		switch rng.Uint64n(6) {
		case 0: // lookup/probe agreement
			want := model.lookup(line)
			if got := ref.Lookup(line); got != want {
				t.Fatalf("op %d: ref.Lookup(%#x) = %v, model %v", i, uint64(line), got, want)
			}
			w := fast.Probe(line)
			if (w != NoWay) != want.Valid() {
				t.Fatalf("op %d: fast.Probe(%#x) = %d, model %v", i, uint64(line), w, want)
			}
			if w != NoWay && fast.WayState(w) != want {
				t.Fatalf("op %d: fast.WayState = %v, model %v", i, fast.WayState(w), want)
			}
		case 1: // touch — alternate the two-step and fused fast forms
			want := model.touch(line)
			if got := ref.Touch(line); got != want {
				t.Fatalf("op %d: ref.Touch = %v, model %v", i, got, want)
			}
			if i%2 == 0 {
				if w := fast.ProbeTouch(line); (w != NoWay) != want {
					t.Fatalf("op %d: fast.ProbeTouch hit=%v, model %v", i, w != NoWay, want)
				}
				break
			}
			if w := fast.Probe(line); w != NoWay {
				if !want {
					t.Fatalf("op %d: fast probe hit, model absent", i)
				}
				fast.TouchWay(w)
			} else if want {
				t.Fatalf("op %d: fast probe miss, model present", i)
			}
		case 2: // setstate (sometimes Invalid)
			st := states[rng.Uint64n(4)]
			if rng.Uint64n(8) == 0 {
				st = Invalid
			}
			want := model.setState(line, st)
			if got := ref.SetState(line, st); got != want {
				t.Fatalf("op %d: ref.SetState = %v, model %v", i, got, want)
			}
			if w := fast.Probe(line); w != NoWay {
				fast.SetStateWay(w, st)
			} else if want {
				t.Fatalf("op %d: fast probe miss on present line", i)
			}
		case 3: // invalidate
			want := model.invalidate(line)
			if got := ref.Invalidate(line); got != want {
				t.Fatalf("op %d: ref.Invalidate = %v, model %v", i, got, want)
			}
			if w := fast.Probe(line); w != NoWay {
				fast.SetStateWay(w, Invalid)
			} else if want.Valid() {
				t.Fatalf("op %d: fast probe miss on present line", i)
			}
		case 4, 5: // insert (plain or non-temporal) when absent
			if model.lookup(line).Valid() {
				continue
			}
			st := states[rng.Uint64n(4)]
			demote := rng.Uint64n(4) == 0
			wantEv, wantEvicted := model.insert(line, st, demote)
			var refEv Eviction
			var refEvicted bool
			if demote {
				refEv, refEvicted = ref.InsertNonTemporal(line, st)
			} else {
				refEv, refEvicted = ref.Insert(line, st)
			}
			if fast.Probe(line) != NoWay {
				t.Fatalf("op %d: fast probe hit before insert", i)
			}
			w, fastEv, fastEvicted := fast.InsertAt(line, st)
			if demote {
				fast.DemoteWay(w)
			}
			if refEvicted != wantEvicted || fastEvicted != wantEvicted {
				t.Fatalf("op %d: evicted ref=%v fast=%v model=%v", i, refEvicted, fastEvicted, wantEvicted)
			}
			if wantEvicted && (refEv != wantEv || fastEv != wantEv) {
				t.Fatalf("op %d: eviction ref=%+v fast=%+v model=%+v", i, refEv, fastEv, wantEv)
			}
		}
		if i%512 == 0 {
			compareArrays(t, i, ref, fast, model)
		}
	}
	compareArrays(t, ops, ref, fast, model)
}

func compareArrays(t *testing.T, op int, ref, fast *Array, model *modelArray) {
	t.Helper()
	want := model.dump()
	for name, a := range map[string]*Array{"ref": ref, "fast": fast} {
		if a.Occupied() != len(want) {
			t.Fatalf("op %d: %s occupied %d, model %d", op, name, a.Occupied(), len(want))
		}
		a.ForEach(func(line mem.LineAddr, st State) {
			if want[line] != st {
				t.Fatalf("op %d: %s holds %#x=%v, model %v", op, name, uint64(line), st, want[line])
			}
		})
	}
}

// TestArrayDifferential exercises the three implementations across the
// geometries the simulated systems use: multi-way L1/LLC shapes, the
// direct-mapped vault shape, and a banked (shifted) bank shape — each
// direct-mapped shape both below dmMinSets (8-byte words) and at it
// (4-byte words).
func TestArrayDifferential(t *testing.T) {
	cases := []struct {
		sets, ways int
		shift      uint
		fourByte   bool
	}{
		{4, 8, 0, false},   // L1 shape
		{8, 16, 0, false},  // LLC bank shape
		{64, 1, 0, false},  // small direct-mapped vault
		{16, 1, 4, false},  // small banked direct-mapped (VaultsShared bank)
		{8, 2, 2, false},   // banked set-associative
		{1, 4, 0, false},   // single-set stress
		{4096, 1, 0, true}, // direct-mapped vault
		{4096, 1, 4, true}, // banked direct-mapped
	}
	for ci, c := range cases {
		c := c
		if got := NewArray(int64(c.sets*c.ways)*mem.LineSize, c.ways, LRU).dm != nil; got != c.fourByte {
			t.Fatalf("%dsx%dw: 4-byte layout %v, want %v", c.sets, c.ways, got, c.fourByte)
		}
		t.Run(fmt.Sprintf("%dsx%dw_shift%d", c.sets, c.ways, c.shift), func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runArrayDifferential(t, c.sets, c.ways, c.shift, seed*7919+uint64(ci), 6000)
			}
		})
	}
}
