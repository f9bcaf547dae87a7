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
// Rows cover both slot layouts — the 8-byte word and the packed slot of a
// direct-mapped array, at widths that straddle 64-bit words — on lone
// arrays and on the members of a Group, whose row scans (Row, ForEachRow)
// are checked against the members' models. CI runs the suite under -race
// alongside the scheduler differential (DESIGN.md §7).

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
// map of the sets touched so far, each a positional slice of ways, LRU by
// explicit stamps.
type modelArray struct {
	sets, ways int
	shift      uint
	tick       uint64
	slots      map[int][]modelLine
}

func newModelArray(sets, ways int, shift uint) *modelArray {
	return &modelArray{sets: sets, ways: ways, shift: shift, slots: map[int][]modelLine{}}
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
	if m.slots[s] == nil {
		m.slots[s] = make([]modelLine, m.ways)
	}
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

// arrayDiff is one row of the differential: a lone array (n == 1) or a
// group of n, driven through the reference layer (ref) and the Way-handle
// fast path (fast), with one model per member.
type arrayDiff struct {
	n         int
	ref, fast *Group
	models    []*modelArray
}

func newArrayDiff(sets, ways int, shift, lineBits uint, n int) *arrayDiff {
	size := int64(sets) * int64(ways) * mem.LineSize
	d := &arrayDiff{n: n,
		ref:  newGroup(n, size, ways, LRU, shift, lineBits),
		fast: newGroup(n, size, ways, LRU, shift, lineBits),
	}
	for range n {
		d.models = append(d.models, newModelArray(sets, ways, shift))
	}
	return d
}

func runArrayDifferential(t *testing.T, sets, ways int, shift, lineBits uint, n int, seed uint64, ops int) {
	t.Helper()
	d := newArrayDiff(sets, ways, shift, lineBits, n)
	rng := sim.NewRNG(seed)

	// Address pool ~2x capacity so sets conflict. Tags span the arrays'
	// whole lineBits-wide bound, and on banked rows carry a non-zero bank id in the
	// low shift bits, so every tag bit a slot keeps must round-trip
	// through ForEach, the row scans and eviction reports. Every eighth
	// line has no tag bits outside its set index, so an empty packed slot
	// (all zeros) must not read as holding it. Arrays of more than 4096
	// sets draw their lines from 256 random sets instead, so they
	// conflict as often.
	bank := uint64(0x5555) & (1<<shift - 1)
	pool := 2*sets*ways + 3
	var hot []uint64
	if sets > 4096 {
		pool = 2*256*ways + 3
		for range 256 {
			hot = append(hot, rng.Uint64n(uint64(sets)))
		}
	}
	lines := make([]mem.LineAddr, pool)
	for i := range lines {
		tg := rng.Uint64n(1<<lineBits)&^(1<<shift-1) | bank
		setMask := uint64(sets-1) << shift
		if hot != nil {
			tg = tg&^setMask | hot[rng.Uint64n(uint64(len(hot)))]<<shift
		}
		if i%8 == 0 {
			tg = tg&setMask | bank
		}
		lines[i] = lineAddr(tg & (1<<lineBits - 1))
	}
	every := 512
	if sets*n > 1<<16 {
		every = 3000 // a compare walks every slot
	}

	states := []State{Shared, Exclusive, Owned, Modified}
	for i := 0; i < ops; i++ {
		line := lines[rng.Uint64n(uint64(len(lines)))]
		c := rng.Intn(n)
		ref, fast, model := d.ref.arrays[c], d.fast.arrays[c], d.models[c]
		switch rng.Uint64n(7) {
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
		case 6: // the line's row in every member, and a key derived on member c probing each
			d.checkRow(t, i, line)
		}
		if i%every == 0 {
			d.compare(t, i)
		}
	}
	d.compare(t, ops)
}

// checkRow compares the fast group's row scan for line, and each
// member's probe with a Key another member derived, with the models.
func (d *arrayDiff) checkRow(t *testing.T, op int, line mem.LineAddr) {
	t.Helper()
	var st [MaxGroup]State
	k := d.fast.arrays[op%d.n].KeyOf(line)
	mask := d.fast.Row(k, &st)
	for c, m := range d.models {
		want := m.lookup(line)
		if got := mask&(1<<uint(c)) != 0; got != want.Valid() || got && st[c] != want {
			t.Fatalf("op %d: Row(%#x) member %d: held %v in %v, model %v", op, uint64(line), c, got, st[c], want)
		}
		if w := d.fast.arrays[c].ProbeKey(k); (w != NoWay) != want.Valid() {
			t.Fatalf("op %d: member %d probing a key member %d derived for %#x: hit %v, model %v",
				op, c, op%d.n, uint64(line), w != NoWay, want)
		}
	}
}

// compare checks every member of both groups against its model, through
// ForEach, and the fast group's ForEachRow against all the models.
func (d *arrayDiff) compare(t *testing.T, op int) {
	t.Helper()
	total := 0
	for c, m := range d.models {
		want := m.dump()
		total += len(want)
		for name, a := range map[string]*Array{"ref": d.ref.arrays[c], "fast": d.fast.arrays[c]} {
			if a.Occupied() != len(want) {
				t.Fatalf("op %d: member %d %s occupied %d, model %d", op, c, name, a.Occupied(), len(want))
			}
			a.ForEach(func(line mem.LineAddr, st State) {
				if want[line] != st {
					t.Fatalf("op %d: member %d %s holds %#x=%v, model %v", op, c, name, uint64(line), st, want[line])
				}
			})
		}
	}
	seen := 0
	d.fast.ForEachRow(func(row []Slot) bool {
		s := d.models[0].set(row[0].Line)
		for _, sl := range row {
			if got := d.models[sl.Member].set(sl.Line); got != s {
				t.Fatalf("op %d: row of set %d lists %#x of set %d", op, s, uint64(sl.Line), got)
			}
			if want := d.models[sl.Member].lookup(sl.Line); want != sl.State {
				t.Fatalf("op %d: row lists member %d holding %#x=%v, model %v", op, sl.Member, uint64(sl.Line), sl.State, want)
			}
		}
		seen += len(row)
		return true
	})
	if seen != total {
		t.Fatalf("op %d: ForEachRow listed %d slots, models hold %d", op, seen, total)
	}
}

// TestArrayDifferential exercises the three implementations across the
// geometries the simulated systems use: multi-way L1/LLC shapes, the
// direct-mapped vault shape, and a banked (shifted) bank shape, alone
// and as groups of 3, 16 and 32 members, at line-address widths from the
// 35 bits of a synthetic 16-core system to MaxLineBits. The packed
// direct-mapped widths run from 3 bits (the state alone, where the set
// index covers every line bit) through 16, 18 and 21 (Scale-1, -4 and -32
// vaults of 35-bit lines) to 43 (a one-set array), so slots straddle
// 64-bit words at every offset.
func TestArrayDifferential(t *testing.T) {
	cases := []struct {
		sets, ways int
		shift      uint
		lineBits   uint
		n          int  // group size
		width      uint // packed slot bits; 0 for the 8-byte layout
	}{
		{4, 8, 0, 40, 1, 0},         // L1 shape
		{8, 16, 0, 40, 1, 0},        // LLC bank shape
		{8, 16, 4, 35, 1, 0},        // LLC bank of 35-bit lines
		{64, 1, 0, 40, 1, 37},       // small direct-mapped vault
		{16, 1, 4, 40, 1, 39},       // small banked direct-mapped (VaultsShared bank)
		{8, 2, 2, 40, 1, 0},         // banked set-associative
		{1, 4, 0, 40, 1, 0},         // single-set stress
		{4096, 1, 0, 40, 1, 31},     // direct-mapped vault
		{4096, 1, 4, 40, 1, 31},     // banked direct-mapped
		{1, 1, 0, 40, 1, 43},        // one-set direct-mapped: the widest slot
		{1 << 22, 1, 0, 40, 1, 21},  // a Scale-1 vault of a group-15 scenario
		{1 << 20, 1, 0, 40, 3, 23},  // Scale-4 vaults of a group-15 scenario, a group of 3
		{1 << 17, 1, 0, 40, 16, 26}, // Scale-32 vaults of a group-15 scenario, 16 cores
		{1 << 22, 1, 0, 35, 1, 16},  // a Scale-1 vault
		{1 << 20, 1, 0, 35, 3, 18},  // Scale-4 vaults, a group of 3
		{1 << 17, 1, 0, 35, 16, 21}, // Scale-32 vaults, 16 cores
		{1 << 17, 1, 4, 35, 1, 21},  // a Scale-32 Vaults-Sh bank
		{64, 1, 0, 40, 32, 37},      // 32 cores
		{4096, 1, 4, 40, 16, 31},    // banked direct-mapped group
		{4096, 1, 0, 10, 16, 3},     // the state alone: lineBits ≤ log2 sets
		{16, 1, 4, 6, 1, 7},         // the state and the bank bits alone
		{16, 4, 0, 40, 16, 0},       // 4-way vaults (the vault_ways override)
		{8, 2, 2, 40, 3, 0},         // banked associative group, a row of 6 words
	}
	for ci, c := range cases {
		c := c
		size := int64(c.sets*c.ways) * mem.LineSize
		if got := newGroup(c.n, size, c.ways, LRU, c.shift, c.lineBits).arrays[0].width; got != c.width {
			t.Fatalf("%dsx%dw, %d-bit lines: packed width %d, want %d", c.sets, c.ways, c.lineBits, got, c.width)
		}
		name := fmt.Sprintf("%dsx%dw_shift%d", c.sets, c.ways, c.shift)
		if c.lineBits != MaxLineBits {
			name += fmt.Sprintf("_line%d", c.lineBits)
		}
		if c.n > 1 {
			name += fmt.Sprintf("_group%d", c.n)
		}
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 3; seed++ {
				runArrayDifferential(t, c.sets, c.ways, c.shift, c.lineBits, c.n, seed*7919+uint64(ci), 6000)
			}
		})
	}
}
