package coherence

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/mem"
	"repro/internal/sim"
)

// driveSnoop applies a deterministic mixed workload (reads, writes,
// evictions — enough volume to force several table growths and leave a
// draining old table live) to a snoop filter.
func driveSnoop(f *SnoopFilter, cores int, ops int) {
	rng := sim.NewRNG(7)
	for i := 0; i < ops; i++ {
		line := mem.LineAddr(rng.Uint64n(uint64(ops/2)+1) * mem.LineSize)
		core := rng.Intn(cores)
		switch rng.Intn(4) {
		case 0:
			f.Read(line, core)
		case 1:
			f.Write(line, core)
		case 2:
			f.WriteMask(line, core)
		default:
			f.Evict(line, core, rng.Bool(0.3))
		}
	}
}

func driveDirectory(d *vaultDir, cores int, ops int) {
	rng := sim.NewRNG(11)
	for i := 0; i < ops; i++ {
		line := mem.LineAddr(rng.Uint64n(uint64(ops/2)+1) * mem.LineSize)
		core := rng.Intn(cores)
		holds := d.SharersMask(line)&(1<<uint(core)) != 0
		switch rng.Intn(4) {
		case 0:
			// Read is only legal on a miss (the requester must not hold).
			if holds {
				d.Write(line, core) // upgrade instead
			} else {
				d.Read(line, core)
			}
		case 1:
			d.Write(line, core)
		case 2:
			// MarkDirty is only legal from the current owner.
			if d.Owner(line) == core {
				d.MarkDirty(line, core)
			} else {
				d.Write(line, core)
			}
		default:
			// Evict is only legal for a core that holds the line.
			if holds {
				d.Evict(line, core)
			} else {
				d.Write(line, core)
			}
		}
	}
}

func snoopContents(f *SnoopFilter) map[mem.LineAddr][2]uint64 {
	out := make(map[mem.LineAddr][2]uint64)
	f.ForEachEntry(func(line mem.LineAddr, mask uint32, owner int) {
		out[line] = [2]uint64{uint64(mask), uint64(owner)}
	})
	return out
}

// roundTrip encodes from's walk and decodes it into into's, returning
// the first error either direction or the trailing checksum reports.
func roundTrip(from, into func(*checkpoint.Codec)) error {
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	from(checkpoint.NewEncoder(w))
	if err := w.Finish(); err != nil {
		return err
	}
	r := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	into(checkpoint.NewDecoder(r))
	return r.Finish()
}

func TestSnoopFilterSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind    StoreKind
		reserve int // lines reserved before filling; 0 grows incrementally
	}{{QuotTable, 0}, {QuotTable, 4096}, {OpenTable, 0}, {OpenTable, 4096}} {
		kind := tc.kind
		cores := 8
		f := NewSnoopFilterWithStore(cores, kind)
		f.Reserve(tc.reserve)
		driveSnoop(f, cores, 3000)

		g := NewSnoopFilterWithStore(cores, kind)
		if err := roundTrip(f.Checkpoint, g.Checkpoint); err != nil {
			t.Fatalf("%v: round trip: %v", kind, err)
		}
		if g.Entries() != f.Entries() || g.Forwards != f.Forwards || g.Invalidations != f.Invalidations {
			t.Fatalf("%v: size/stats diverge: %d/%d/%d vs %d/%d/%d",
				kind, g.Entries(), g.Forwards, g.Invalidations, f.Entries(), f.Forwards, f.Invalidations)
		}
		want, got := snoopContents(f), snoopContents(g)
		if len(want) != len(got) {
			t.Fatalf("%v: entry count %d vs %d", kind, len(got), len(want))
		}
		for line, v := range want {
			if got[line] != v {
				t.Fatalf("%v: line %#x: got %v want %v", kind, line, got[line], v)
			}
		}
		if kind == QuotTable && len(g.entries.fastQ.slots) != len(f.entries.fastQ.slots) {
			t.Fatalf("%v reserve %d: restored slab %d slots, snapshotted %d",
				kind, tc.reserve, len(g.entries.fastQ.slots), len(f.entries.fastQ.slots))
		}

		// The restored filter must behave identically under further
		// traffic, not just hold the same content: drive both again and
		// re-compare (this exercises preserved probe chains, draining
		// migration position, and growth schedule).
		driveSnoop(f, cores, 2000)
		driveSnoop(g, cores, 2000)
		if g.Entries() != f.Entries() || g.Forwards != f.Forwards || g.Invalidations != f.Invalidations {
			t.Fatalf("%v: post-restore behaviour diverges", kind)
		}
	}
}

// TestDirectorySnapshotRoundTrip: the directory keeps no state of its
// own — its whole state is the vault group it views — so a view built
// over a checkpointed-and-restored group holds every line in every core's
// state and behaves exactly as the original under further traffic.
func TestDirectorySnapshotRoundTrip(t *testing.T) {
	for _, g := range viewGeometries {
		for _, proto := range []Protocol{MOESI, MESI} {
			const cores = 8
			d := newVaultDir(cores, proto, g.sets, g.ways, 35)
			driveDirectory(d, cores, 3000)

			r := newVaultDir(cores, proto, g.sets, g.ways, 35)
			if err := roundTrip(d.group.Checkpoint, r.group.Checkpoint); err != nil {
				t.Fatalf("%s/%v: vault group round trip: %v", g.name, proto, err)
			}
			driveDirectory(d, cores, 2000)
			driveDirectory(r, cores, 2000)
			for l := uint64(0); l <= 1501; l++ {
				line := mem.LineAddr(l * mem.LineSize)
				for c := 0; c < cores; c++ {
					if got, want := r.StateOf(line, c), d.StateOf(line, c); got != want {
						t.Fatalf("%s/%v: line %#x core %d: restored %v, original %v", g.name, proto, uint64(line), c, got, want)
					}
				}
			}
			if msg := r.CheckInvariants(); msg != "" {
				t.Fatalf("%s/%v: restored directory invariants: %s", g.name, proto, msg)
			}
		}
	}
}

func TestStoreKindMismatchRejected(t *testing.T) {
	f := NewSnoopFilterWithStore(4, QuotTable)
	driveSnoop(f, 4, 100)
	g := NewSnoopFilterWithStore(4, OpenTable)
	if err := roundTrip(f.Checkpoint, g.Checkpoint); err == nil {
		t.Fatal("store-kind mismatch not rejected")
	}
}
