package coherence

import (
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// vaultDir is the Directory together with the vault bookkeeping
// privateHierarchy performs around it. Its Read and WriteMask are the
// directory transactions followed by that bookkeeping: a miss installs
// the line in the state the transaction gives (evicting the set's victim
// with the victim slot's own state), and a write invalidates the peers it
// names. Directory.Read and Directory.WriteMask stay reachable as the
// bare view.
type vaultDir struct {
	*Directory
	vaults []*cache.Array
}

// newVaultDir builds the view over a group of cores vaults of sets x ways
// lines of lineBits-wide line addresses, as privateHierarchy does.
func newVaultDir(cores int, proto Protocol, sets, ways int, lineBits uint) *vaultDir {
	g := cache.NewGroup(cores, int64(sets*ways)*mem.LineSize, ways, cache.LRU, lineBits)
	return &vaultDir{Directory: NewDirectory(g, proto), vaults: g.Arrays()}
}

// fill installs line, which core's vault does not hold, in state st and
// reports the victim it displaced.
func (v *vaultDir) fill(core int, line mem.LineAddr, st cache.State) (cache.Eviction, bool) {
	_, ev, evicted := v.vaults[core].InsertAt(line, st)
	return ev, evicted
}

// read is a read miss: the transaction, then the fill.
func (v *vaultDir) read(line mem.LineAddr, core int) (ReadOutcome, cache.Eviction, bool) {
	out := v.Directory.Read(line, core)
	ev, evicted := v.fill(core, line, out.FillState)
	return out, ev, evicted
}

// write is a write miss or upgrade: the transaction, the peer
// invalidations, then the Modified fill unless the requester already
// held the line.
func (v *vaultDir) write(line mem.LineAddr, core int) (WriteMaskOutcome, cache.Eviction, bool) {
	out := v.Directory.WriteMask(line, core)
	for m := out.InvalidatedMask; m != 0; m &= m - 1 {
		v.vaults[bits.TrailingZeros32(m)].Invalidate(line)
	}
	if out.Upgrade {
		return out, cache.Eviction{}, false
	}
	ev, evicted := v.fill(core, line, cache.Modified)
	return out, ev, evicted
}

func (v *vaultDir) Read(line mem.LineAddr, core int) ReadOutcome {
	out, _, _ := v.read(line, core)
	return out
}

func (v *vaultDir) WriteMask(line mem.LineAddr, core int) WriteMaskOutcome {
	out, _, _ := v.write(line, core)
	return out
}

// Evict drops core's copy of the line, as a fill that picks it as victim
// does, and reports whether it was a dirty owner.
func (v *vaultDir) Evict(line mem.LineAddr, core int) EvictOutcome {
	st := v.vaults[core].Invalidate(line)
	if st == cache.Invalid {
		panic(fmt.Sprintf("coherence: core %d evicted line %#x it does not hold", core, uint64(line)))
	}
	return EvictOutcome{MemWriteback: st.Dirty()}
}

// viewGeometries are the vault groups the view runs on: packed
// direct-mapped slots of 4096 and 64 sets, and the 8-byte words of the
// 4-way LRU vaults of the vault_ways=4 override. The direct-mapped rows
// keep the names of the slot sizes they had before slots were packed (4
// and 8 bytes); TestDirectoryViewDifferential runs each at two
// line-address widths, which make their slots 26 and 32 bits at 35-bit
// lines and 31 and 37 bits at 40-bit lines.
var viewGeometries = []struct {
	name       string
	sets, ways int
}{
	{"dm-4B", 4096, 1},
	{"dm-8B", 64, 1},
	{"4way-LRU", 16, 4},
}

// TestDirectoryViewDifferential drives the vault view and the line-table
// directory it replaced (lineDirectory, the oracle) through one event
// stream: read misses and local hits, stores as privateHierarchy issues
// them (Modified and Owned copies complete locally, Exclusive ones
// MarkDirty, the rest go through WriteMask), writes and MarkDirty calls
// by owners, plus the fills, peer invalidations and victim evictions
// privateHierarchy performs. Its lines crowd a few sets, so fills evict
// often. After every event the outcomes must agree — source, fill state,
// memory writeback, invalidated mask, upgrade, and the victim's
// writeback — and so must every core's state for the touched line and
// the victim. Each geometry runs at the 35-bit line addresses of a
// synthetic 16-core system and at the 40 bits of a scenario's sharing
// group 15, with tags that set the top bits of the line address, so a
// slot too narrow for them fails, and with the oracle on the store the
// width selects (the quotient table at 35 bits up to 16 cores, the open
// table otherwise). Rows below MaxLineBits carry their width in their
// name. CI runs it under -race.
func TestDirectoryViewDifferential(t *testing.T) {
	for _, g := range viewGeometries {
		for _, lineBits := range []uint{35, 40} {
			for _, proto := range []Protocol{MOESI, MESI} {
				for _, cores := range []int{4, 16, 32} {
					runViewDifferential(t, g.name, g.sets, g.ways, lineBits, proto, cores)
				}
			}
		}
	}
}

// runViewDifferential is one TestDirectoryViewDifferential row.
func runViewDifferential(t *testing.T, name string, sets, ways int, lineBits uint, proto Protocol, cores int) {
	const (
		hotSets = 4
		tags    = 6 // lines per hot set: more than any geometry's ways
		steps   = 20_000
	)
	if lineBits != cache.MaxLineBits {
		name += fmt.Sprintf("/line%d", lineBits)
	}
	t.Run(fmt.Sprintf("%s/%v/%d", name, proto, cores), func(t *testing.T) {
		view := newVaultDir(cores, proto, sets, ways, lineBits)
		oracle := newLineDirectory(cores, proto, DefaultStore(cores, lineBits))
		rng := sim.NewRNG(uint64(cores)*1009 + uint64(sets*ways) + uint64(proto) + uint64(lineBits)<<20)
		// Tag k of a set is the all-ones tag of the width with
		// k·0x5A5A5 flipped: distinct, and the top bit set for
		// every k < tags.
		setBits := uint(bits.TrailingZeros(uint(sets)))
		tagMask := uint64(1)<<(lineBits-setBits) - 1
		lineAt := func(set, tag uint64) mem.LineAddr {
			return mem.LineAddr(((tagMask^tag*0x5A5A5)<<setBits + set) * mem.LineSize)
		}
		agree := func(step int, what string, l mem.LineAddr) {
			t.Helper()
			for c := 0; c < cores; c++ {
				if got, want := view.StateOf(l, c), oracle.StateOf(l, c); got != want {
					t.Fatalf("step %d: %s line %#x core %d: view %v, oracle %v",
						step, what, uint64(l), c, got, want)
				}
			}
		}
		victim := func(step, c int, ev cache.Eviction, evicted bool) {
			t.Helper()
			if !evicted {
				return
			}
			if want := oracle.Evict(ev.Line, c); ev.State.Dirty() != want.MemWriteback {
				t.Fatalf("step %d: victim %#x of core %d left in %v, oracle writeback %v",
					step, uint64(ev.Line), c, ev.State, want.MemWriteback)
			}
			agree(step, "victim", ev.Line)
		}
		write := func(step int, l mem.LineAddr, c int) {
			t.Helper()
			want := oracle.WriteMask(l, c)
			got, ev, evicted := view.write(l, c)
			if got != want {
				t.Fatalf("step %d: WriteMask(%#x, %d) = %+v, oracle %+v", step, uint64(l), c, got, want)
			}
			victim(step, c, ev, evicted)
		}
		for step := 0; step < steps; step++ {
			l := lineAt(rng.Uint64n(hotSets), rng.Uint64n(tags))
			c := rng.Intn(cores)
			st := view.StateOf(l, c)
			switch k := rng.Intn(10); {
			case k < 5: // load
				if st.Valid() {
					v := view.vaults[c]
					v.TouchWay(v.Probe(l))
					break
				}
				want := oracle.Read(l, c)
				got, ev, evicted := view.read(l, c)
				if got != want {
					t.Fatalf("step %d: Read(%#x, %d) = %+v, oracle %+v", step, uint64(l), c, got, want)
				}
				victim(step, c, ev, evicted)
			case k < 8: // store, as privateHierarchy issues it
				switch st {
				case cache.Modified, cache.Owned:
				case cache.Exclusive:
					view.MarkDirty(l, c)
					oracle.MarkDirty(l, c)
				default:
					write(step, l, c)
				}
			case k < 9: // a write through the directory whatever the state
				write(step, l, c)
			default: // MarkDirty by an owner
				if st == cache.Exclusive || st == cache.Owned || st == cache.Modified {
					view.MarkDirty(l, c)
					oracle.MarkDirty(l, c)
				}
			}
			agree(step, "touched", l)
			if step%1000 == 999 || step == steps-1 {
				if msg := view.CheckInvariants(); msg != "" {
					t.Fatalf("step %d: view invariants: %s", step, msg)
				}
				if msg := oracle.CheckInvariants(); msg != "" {
					t.Fatalf("step %d: oracle invariants: %s", step, msg)
				}
				for s := uint64(0); s < hotSets; s++ {
					for tg := uint64(0); tg < tags; tg++ {
						agree(step, "population", lineAt(s, tg))
					}
				}
			}
		}
	})
}
