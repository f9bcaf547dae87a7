package coherence

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
)

func line(n uint64) mem.LineAddr { return mem.LineAddr(n * mem.LineSize) }

// newTestDir builds the transition tests' directory: 16 cores over
// direct-mapped vaults of 64 sets, so the few lines each test uses never
// conflict.
func newTestDir(proto Protocol) *vaultDir { return newVaultDir(16, proto, 64, 1, 35) }

func TestFirstReadFillsExclusive(t *testing.T) {
	d := newTestDir(MOESI)
	out := d.Read(line(1), 3)
	if out.Source != MemorySource || out.FillState != cache.Exclusive || out.MemWriteback {
		t.Fatalf("first read outcome = %+v", out)
	}
	if d.StateOf(line(1), 3) != cache.Exclusive {
		t.Fatal("requester should hold E")
	}
	if d.Owner(line(1)) != 3 {
		t.Fatal("requester should be owner")
	}
}

func TestReadAfterReadSharesCleanly(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0)
	out := d.Read(line(1), 1)
	if out.Source != 0 {
		t.Fatalf("second read should forward from core 0, got %d", out.Source)
	}
	if out.MemWriteback {
		t.Fatal("clean forward should not write back")
	}
	if d.StateOf(line(1), 0) != cache.Shared || d.StateOf(line(1), 1) != cache.Shared {
		t.Fatal("E should degrade to S on sharing")
	}
	if d.Owner(line(1)) != -1 {
		t.Fatal("no owner after clean sharing")
	}
}

func TestMOESIDirtySharingAvoidsMemory(t *testing.T) {
	d := newTestDir(MOESI)
	d.Write(line(1), 0) // core 0: M
	out := d.Read(line(1), 1)
	if out.Source != 0 {
		t.Fatalf("dirty owner should forward, got %d", out.Source)
	}
	if out.MemWriteback {
		t.Fatal("MOESI must not write back on M->O downgrade (the point of the O state)")
	}
	if d.StateOf(line(1), 0) != cache.Owned {
		t.Fatalf("owner state = %v, want O", d.StateOf(line(1), 0))
	}
	if d.StateOf(line(1), 1) != cache.Shared {
		t.Fatal("reader should be S")
	}
	// A third reader is served by the O owner, still without memory.
	out = d.Read(line(1), 2)
	if out.Source != 0 || out.MemWriteback {
		t.Fatalf("O owner should keep forwarding: %+v", out)
	}
}

func TestMESIDirtySharingWritesBack(t *testing.T) {
	d := newTestDir(MESI)
	d.Write(line(1), 0)
	out := d.Read(line(1), 1)
	if out.Source != 0 {
		t.Fatalf("owner should forward, got %d", out.Source)
	}
	if !out.MemWriteback {
		t.Fatal("MESI M->S downgrade must write back to memory")
	}
	if d.StateOf(line(1), 0) != cache.Shared {
		t.Fatal("MESI owner should drop to S")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0)
	d.Read(line(1), 1)
	d.Read(line(1), 2)
	out := d.Write(line(1), 3)
	if len(out.Invalidated) != 3 {
		t.Fatalf("invalidated %v, want 3 cores", out.Invalidated)
	}
	if out.Upgrade {
		t.Fatal("write by non-holder is not an upgrade")
	}
	if out.Source == MemorySource {
		t.Fatal("a clean sharer should forward rather than memory")
	}
	if got := d.Sharers(line(1)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("sharers = %v, want [3]", got)
	}
	if d.StateOf(line(1), 3) != cache.Modified {
		t.Fatal("writer should hold M")
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0)
	d.Read(line(1), 1)
	out := d.Write(line(1), 0)
	if !out.Upgrade || out.Source != 0 {
		t.Fatalf("upgrade outcome = %+v", out)
	}
	if len(out.Invalidated) != 1 || out.Invalidated[0] != 1 {
		t.Fatalf("invalidated = %v, want [1]", out.Invalidated)
	}
	if d.StateOf(line(1), 0) != cache.Modified || d.StateOf(line(1), 1) != cache.Invalid {
		t.Fatal("upgrader should hold M alone")
	}
}

func TestWriteToDirtyPeerForwards(t *testing.T) {
	d := newTestDir(MOESI)
	d.Write(line(1), 0)
	out := d.Write(line(1), 1)
	if out.Source != 0 {
		t.Fatalf("dirty peer should forward, got %d", out.Source)
	}
	if len(out.Invalidated) != 1 || out.Invalidated[0] != 0 {
		t.Fatalf("invalidated = %v, want [0]", out.Invalidated)
	}
	if d.StateOf(line(1), 0) != cache.Invalid || d.StateOf(line(1), 1) != cache.Modified {
		t.Fatal("ownership should move to core 1")
	}
}

func TestEvictModifiedWritesBack(t *testing.T) {
	d := newTestDir(MOESI)
	d.Write(line(1), 0)
	out := d.Evict(line(1), 0)
	if !out.MemWriteback {
		t.Fatal("M eviction must write back")
	}
	if d.SharersMask(line(1)) != 0 {
		t.Fatal("no core should hold the line")
	}
}

func TestEvictOwnedKeepsSharers(t *testing.T) {
	d := newTestDir(MOESI)
	d.Write(line(1), 0)
	d.Read(line(1), 1) // 0: O, 1: S
	out := d.Evict(line(1), 0)
	if !out.MemWriteback {
		t.Fatal("O eviction must write back")
	}
	if d.StateOf(line(1), 1) != cache.Shared {
		t.Fatal("remaining sharer should survive")
	}
	if d.Owner(line(1)) != -1 {
		t.Fatal("no owner after O eviction")
	}
}

func TestEvictCleanIsSilent(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0) // E
	if out := d.Evict(line(1), 0); out.MemWriteback {
		t.Fatal("E eviction should be silent")
	}
	d.Read(line(2), 0)
	d.Read(line(2), 1) // both S
	if out := d.Evict(line(2), 1); out.MemWriteback {
		t.Fatal("S eviction should be silent")
	}
}

func TestMarkDirty(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0) // E
	d.MarkDirty(line(1), 0)
	if d.StateOf(line(1), 0) != cache.Modified {
		t.Fatal("E should silently upgrade to M")
	}
	// MarkDirty on M is a no-op.
	d.MarkDirty(line(1), 0)
	if d.StateOf(line(1), 0) != cache.Modified {
		t.Fatal("M should stay M")
	}
}

func TestMarkDirtyByNonOwnerPanics(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0)
	d.Read(line(1), 1) // S everywhere: no owner
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.MarkDirty(line(1), 1)
}

func TestReadWhileHoldingPanics(t *testing.T) {
	d := newTestDir(MOESI)
	d.Read(line(1), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Read(line(1), 0)
}

func TestEvictNotHeldPanics(t *testing.T) {
	d := newTestDir(MOESI)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Evict(line(1), 0)
}

// TestNewDirectoryPanics: the directory's vault group holds 1 to 32
// vaults (cache.MaxGroup), one per core, and a core outside it panics.
func TestNewDirectoryPanics(t *testing.T) {
	for name, build := range map[string]func(){
		"0 cores":  func() { newVaultDir(0, MOESI, 64, 1, 35) },
		"33 cores": func() { newVaultDir(33, MOESI, 64, 1, 35) },
		"core 4 of 4": func() {
			newVaultDir(4, MOESI, 64, 1, 35).Read(line(1), 4)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for %s", name)
				}
			}()
			build()
		}()
	}
}

func TestProtocolString(t *testing.T) {
	if MOESI.String() != "MOESI" || MESI.String() != "MESI" {
		t.Fatal("protocol names wrong")
	}
}

// Property: under random operation sequences the directory invariants hold,
// and a reference model of per-core presence agrees with StateOf.
func TestDirectoryInvariantsUnderRandomOps(t *testing.T) {
	f := func(ops []uint16, mesi bool) bool {
		proto := MOESI
		if mesi {
			proto = MESI
		}
		const cores = 4
		d := newVaultDir(cores, proto, 64, 1, 35)
		held := map[mem.LineAddr]map[int]bool{} // reference presence
		for _, op := range ops {
			l := line(uint64(op) % 8)
			c := int(op>>3) % cores
			kind := (op >> 5) % 3
			if held[l] == nil {
				held[l] = map[int]bool{}
			}
			switch kind {
			case 0: // read miss (skip when held)
				if held[l][c] {
					continue
				}
				out := d.Read(l, c)
				if out.Source != MemorySource && !held[l][out.Source] {
					return false // forwarded from a core without the line
				}
				held[l][c] = true
			case 1: // write
				d.Write(l, c)
				held[l] = map[int]bool{c: true}
			case 2: // evict (skip when absent)
				if !held[l][c] {
					continue
				}
				d.Evict(l, c)
				delete(held[l], c)
			}
			if msg := d.CheckInvariants(); msg != "" {
				t.Logf("invariant violated: %s", msg)
				return false
			}
		}
		// Reference agreement.
		for l, cs := range held {
			for c := 0; c < cores; c++ {
				if cs[c] != d.StateOf(l, c).Valid() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: at most one core ever holds a line in a dirty/exclusive state
// (the single-owner invariant), checked against StateOf directly.
func TestSingleOwnerProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		const cores = 8
		d := newVaultDir(cores, MOESI, 64, 1, 35)
		for _, op := range ops {
			l := line(uint64(op) % 4)
			c := int(op>>2) % cores
			if op&0x8000 != 0 {
				if d.StateOf(l, c) == cache.Invalid {
					d.Write(l, c)
				} else {
					d.Write(l, c) // upgrade path
				}
			} else if d.StateOf(l, c) == cache.Invalid {
				d.Read(l, c)
			}
			exclusiveHolders := 0
			for cc := 0; cc < cores; cc++ {
				st := d.StateOf(l, cc)
				if st == cache.Exclusive || st == cache.Modified || st == cache.Owned {
					exclusiveHolders++
				}
			}
			if exclusiveHolders > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsCatchesViolations plants each state combination the
// protocol must never produce in a vault group's rows — at packed and
// 8-byte slots — and demands that the row scan reports it, while legal
// rows pass. Every vault with room for it also holds another line of the
// same set in S, so a check that confuses a row's lines fails the legal
// rows.
func TestCheckInvariantsCatchesViolations(t *testing.T) {
	type holding struct {
		core int
		st   cache.State
	}
	for _, ways := range []int{1, 4} {
		for name, c := range map[string]struct {
			proto Protocol
			held  []holding
			bad   bool
		}{
			"E alone":            {MOESI, []holding{{1, cache.Exclusive}}, false},
			"O with sharers":     {MOESI, []holding{{0, cache.Owned}, {2, cache.Shared}, {3, cache.Shared}}, false},
			"E with a sharer":    {MOESI, []holding{{1, cache.Exclusive}, {2, cache.Shared}}, true},
			"M with a sharer":    {MOESI, []holding{{2, cache.Shared}, {3, cache.Modified}}, true},
			"two owners":         {MOESI, []holding{{0, cache.Owned}, {1, cache.Modified}}, true},
			"O under MESI":       {MESI, []holding{{2, cache.Owned}}, true},
			"state out of range": {MOESI, []holding{{1, cache.State(5)}}, true},
		} {
			d := newVaultDir(4, c.proto, 16, ways, 35)
			l, other := line(3), line(3+16) // one set, two tags
			for _, h := range c.held {
				d.vaults[h.core].InsertAt(l, h.st)
			}
			for _, v := range d.vaults {
				if ways > 1 || !v.Contains(l) {
					v.InsertAt(other, cache.Shared)
				}
			}
			if msg := d.CheckInvariants(); (msg != "") != c.bad {
				t.Errorf("%d ways, %s: CheckInvariants = %q, want a violation: %v", ways, name, msg, c.bad)
			}
		}
	}
}
