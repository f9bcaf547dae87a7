package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// The coherence-store differential: a SnoopFilter (and the line-table
// directory oracle, lineDirectory) built on the open-addressed or
// quotient-compressed table must return, operation for operation,
// exactly what the map-backed reference returns — results, stats, and
// entry counts. Together with the protocol logic being byte-for-byte
// shared (only the store differs), this is the substrate-swap half of the
// determinism contract (DESIGN.md §7 and §8). CI runs this file under
// -race.

// tableKinds are the fast stores checked against the map reference.
var tableKinds = []StoreKind{OpenTable, QuotTable}

func snoopStats(f *SnoopFilter) [2]uint64 { return [2]uint64{f.Forwards, f.Invalidations} }

func TestSnoopFilterStoreDifferential(t *testing.T) {
	for _, kind := range tableKinds {
		for seed := uint64(1); seed <= 4; seed++ {
			const cores = 16
			fast := NewSnoopFilterWithStore(cores, kind)
			ref := newMapSnoopFilter(cores)
			rng := sim.NewRNG(seed * 31337)

			const lines = 3000 // enough to grow the table several times
			line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }

			for i := 0; i < 120_000; i++ {
				l := line(rng.Uint64n(lines))
				c := int(rng.Uint64n(cores))
				switch rng.Uint64n(8) {
				case 0, 1, 2:
					fo, do := fast.Read(l, c)
					fr, dr := ref.Read(l, c)
					if fo != fr || do != dr {
						t.Fatalf("%v seed %d op %d: Read = (%d,%v) vs (%d,%v)", kind, seed, i, fo, do, fr, dr)
					}
				case 3, 4:
					mo, do := fast.WriteMask(l, c)
					mr, dr := ref.WriteMask(l, c)
					if mo != mr || do != dr {
						t.Fatalf("%v seed %d op %d: WriteMask = (%#x,%v) vs (%#x,%v)", kind, seed, i, mo, do, mr, dr)
					}
				case 5:
					fast.Evict(l, c, i%2 == 0)
					ref.Evict(l, c, i%2 == 0)
				case 6:
					if fast.InvalidateAllMask(l) != ref.InvalidateAllMask(l) {
						t.Fatalf("%v seed %d op %d: InvalidateAllMask diverged", kind, seed, i)
					}
				case 7:
					if fast.HoldersMask(l) != ref.HoldersMask(l) || fast.DirtyOwner(l) != ref.DirtyOwner(l) {
						t.Fatalf("%v seed %d op %d: query diverged", kind, seed, i)
					}
				}
				if snoopStats(fast) != snoopStats(ref) {
					t.Fatalf("%v seed %d op %d: stats %v vs %v", kind, seed, i, snoopStats(fast), snoopStats(ref))
				}
				if fast.Entries() != ref.Entries() {
					t.Fatalf("%v seed %d op %d: entries %d vs %d", kind, seed, i, fast.Entries(), ref.Entries())
				}
			}
			if msg := fast.CheckInvariants(); msg != "" {
				t.Fatalf("%v seed %d: invariants: %s", kind, seed, msg)
			}
			// Entry-for-entry agreement.
			ref.ForEachEntry(func(l mem.LineAddr, mask uint32, owner int) {
				if fast.HoldersMask(l) != mask || fast.DirtyOwner(l) != owner {
					t.Fatalf("%v seed %d: entry %#x diverged", kind, seed, uint64(l))
				}
			})
		}
	}
}

func dirStats(d *lineDirectory) [6]uint64 {
	return [6]uint64{d.Reads, d.Writes, d.Upgrades, d.Forwards, d.Invalidations, d.MemWritebacks}
}

func TestDirectoryStoreDifferential(t *testing.T) {
	for _, kind := range tableKinds {
		for _, proto := range []Protocol{MOESI, MESI} {
			for seed := uint64(1); seed <= 3; seed++ {
				const cores = 16
				fast := newLineDirectory(cores, proto, kind)
				ref := newMapLineDirectory(cores, proto)
				rng := sim.NewRNG(seed*7907 + uint64(proto))

				const lines = 2500
				line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }

				for i := 0; i < 100_000; i++ {
					l := line(rng.Uint64n(lines))
					c := int(rng.Uint64n(cores))
					st := ref.StateOf(l, c)
					if st != fast.StateOf(l, c) {
						t.Fatalf("%v proto %v seed %d op %d: StateOf diverged", kind, proto, seed, i)
					}
					switch rng.Uint64n(8) {
					case 0, 1, 2: // read miss (legal only when absent)
						if st != cache.Invalid {
							continue
						}
						oo := fast.Read(l, c)
						ro := ref.Read(l, c)
						if oo != ro {
							t.Fatalf("%v proto %v seed %d op %d: Read %+v vs %+v", kind, proto, seed, i, oo, ro)
						}
					case 3, 4: // write or upgrade
						oo := fast.WriteMask(l, c)
						ro := ref.WriteMask(l, c)
						if oo != ro {
							t.Fatalf("%v proto %v seed %d op %d: WriteMask %+v vs %+v", kind, proto, seed, i, oo, ro)
						}
					case 5: // evict (legal only when held)
						if st == cache.Invalid {
							continue
						}
						oo := fast.Evict(l, c)
						ro := ref.Evict(l, c)
						if oo != ro {
							t.Fatalf("%v proto %v seed %d op %d: Evict %+v vs %+v", kind, proto, seed, i, oo, ro)
						}
					case 6: // silent E->M upgrade (legal only for the E owner)
						if st != cache.Exclusive {
							continue
						}
						fast.MarkDirty(l, c)
						ref.MarkDirty(l, c)
					case 7: // queries
						if fast.SharersMask(l) != ref.SharersMask(l) || fast.Owner(l) != ref.Owner(l) {
							t.Fatalf("%v proto %v seed %d op %d: query diverged", kind, proto, seed, i)
						}
					}
					if dirStats(fast) != dirStats(ref) {
						t.Fatalf("%v proto %v seed %d op %d: stats %v vs %v", kind, proto, seed, i, dirStats(fast), dirStats(ref))
					}
					if fast.Entries() != ref.Entries() {
						t.Fatalf("%v proto %v seed %d op %d: entries diverged", kind, proto, seed, i)
					}
				}
				if msg := fast.CheckInvariants(); msg != "" {
					t.Fatalf("%v proto %v seed %d: invariants: %s", kind, proto, seed, msg)
				}
			}
		}
	}
}

// TestSnoopSteadyStateAllocFree pins the satellite fix: the shared-LLC
// store path (WriteMask) — and the rest of the steady-state op mix — must
// not allocate once the table has reached its working size.
func TestSnoopSteadyStateAllocFree(t *testing.T) {
	const cores, lines = 16, 512
	f := NewSnoopFilter(cores, 35)
	line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }
	// Reach steady state: every line tracked, table at final size.
	for i := uint64(0); i < lines; i++ {
		f.Read(line(i), int(i%cores))
		f.Read(line(i), int((i+1)%cores))
	}
	var i uint64
	allocs := testing.AllocsPerRun(5000, func() {
		l := line(i % lines)
		c := int(i % cores)
		f.Read(l, (c+1)%cores)
		f.WriteMask(l, c)
		f.Evict(l, c, false)
		f.Read(l, c)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state snoop ops allocate %v objects per op, want 0", allocs)
	}
}

// TestDirectorySteadyStateAllocFree does the same for the private-LLC
// directory's read/write/evict cycle over its vaults.
func TestDirectorySteadyStateAllocFree(t *testing.T) {
	const cores, lines = 16, 512
	d := newVaultDir(cores, MOESI, 4096, 1, 35)
	line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }
	for i := uint64(0); i < lines; i++ {
		d.Read(line(i), int(i%cores))
	}
	var i uint64
	allocs := testing.AllocsPerRun(5000, func() {
		l := line(i % lines)
		c := int(i % cores)
		d.WriteMask(l, c)
		d.Read(l, (c+1)%cores)
		d.Evict(l, c)
		d.Evict(l, (c+1)%cores)
		d.Read(l, c)
		i++
	})
	if allocs != 0 {
		t.Fatalf("steady-state directory ops allocate %v objects per op, want 0", allocs)
	}
}
