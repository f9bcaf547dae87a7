package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/workload"
)

// addrOfTag returns the address of the line with the given tag.
func addrOfTag(tag uint64) mem.Addr { return mem.Addr(tag * mem.LineSize) }

// Regression test for the L2-hit fill path: inserting into the L1-D on an
// L2 hit displaces a victim, and that victim's snoop-filter tracking must
// be released when it leaves the core's last private copy. The buggy path
// inserted with a bare Insert, so a victim resident only in the L1-D kept
// its (possibly dirty-owner) tracking forever, and the filter would later
// "forward" from a cache that no longer held the line.
//
// Geometry at the default Scale 16 (asserted below): L1-D 8 sets x 8 ways,
// L2 64 sets x 8 ways, both indexed by low tag bits — lines in the same L2
// set share an L1 set too, but L1 and L2 LRU order diverge because L1 hits
// do not touch the L2.
func TestL2HitFillReleasesVictimTracking(t *testing.T) {
	cfg := BaselineConfig(2).WithL2()
	sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	h, ok := sys.hier.(*sharedHierarchy)
	if !ok {
		t.Fatal("baseline system is not a shared hierarchy")
	}
	if s := h.l1d[0].SizeBytes() / (int64(cfg.L1Ways) * mem.LineSize); s != 8 {
		t.Fatalf("L1D sets = %d, test assumes 8", s)
	}
	if s := h.l2[0].SizeBytes() / (int64(cfg.L2Ways) * mem.LineSize); s != 64 {
		t.Fatalf("L2 sets = %d, test assumes 64", s)
	}

	const baseTag = 1024 // tag ≡ 0 mod 64: L1 set 0, L2 set 0
	x := addrOfTag(baseTag).Line()

	// Core 0 writes X: X enters L1-D and L2, tracked as dirty owner.
	h.data(0, addrOfTag(baseTag), true, false, false, false)
	if own := h.snoop.DirtyOwner(x); own != 0 {
		t.Fatalf("after write, DirtyOwner(X) = %d, want 0", own)
	}

	// Eight fills f1..f8 in X's L2 set (and therefore X's L1 set). X is
	// re-touched in the L1-D after every fill, so it stays L1-resident
	// while aging to L2-LRU: f8's L2 insert evicts X from the L2 (tracking
	// correctly kept — X is still in the L1-D), and f8's L1 insert evicts
	// the L1-LRU f1 (tracking correctly kept — f1 is still in the L2).
	for i := uint64(1); i <= 8; i++ {
		h.data(0, addrOfTag(baseTag+64*i), false, false, false, false)
		h.data(0, addrOfTag(baseTag), false, false, false, false)
	}
	f1 := addrOfTag(baseTag + 64).Line()
	if h.l2[0].Contains(x) {
		t.Fatal("setup failed: X still in L2")
	}
	if !h.l1d[0].Contains(x) || h.l1d[0].Contains(f1) || !h.l2[0].Contains(f1) {
		t.Fatal("setup failed: want X in L1D only and f1 in L2 only")
	}

	// Age X to L1-LRU by touching every other resident of its L1 set.
	for i := uint64(2); i <= 8; i++ {
		h.data(0, addrOfTag(baseTag+64*i), false, false, false, false)
	}

	// The critical access: f1 hits in the L2 and fills the L1-D, evicting
	// X — core 0's last copy. Its tracking must be released.
	h.data(0, addrOfTag(baseTag+64), false, false, false, false)
	if h.l1d[0].Contains(x) || h.l2[0].Contains(x) {
		t.Fatal("setup failed: X still resident after the L2-hit fill")
	}
	if own := h.snoop.DirtyOwner(x); own != -1 {
		t.Errorf("stale dirty owner %d for evicted line X", own)
	}
	if msg := sys.CheckInvariants(); msg != "" {
		t.Errorf("invariant violated: %s", msg)
	}

	// A read from core 1 must not count a forward from core 0's vanished
	// copy (the stale entry's user-visible symptom: inflated Forwards).
	before := h.snoop.Forwards
	h.data(1, addrOfTag(baseTag), false, false, false, false)
	if h.snoop.Forwards != before {
		t.Errorf("spurious forward from a cache that no longer holds X")
	}
}

// Whole-system smoke: a three-level shared hierarchy running real streams
// must keep the snoop filter consistent with actual cache contents (the
// cross-check in sharedHierarchy.check covers every tracked line).
func TestSharedL2FilterMatchesContentsUnderLoad(t *testing.T) {
	cfg := BaselineConfig(4).WithL2()
	cfg.Scale = 32
	sys := NewSystem(cfg, []workload.Spec{workload.DataServing()})
	sys.WarmFunctional(20_000)
	if msg := sys.CheckInvariants(); msg != "" {
		t.Fatalf("after functional warm-up: %s", msg)
	}
	sys.Run(1_000, 5_000)
	if msg := sys.CheckInvariants(); msg != "" {
		t.Fatalf("after timed run: %s", msg)
	}
}
