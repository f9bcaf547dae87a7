package coherence

import (
	"testing"
	"testing/quick"
)

func TestSnoopReadNoOwner(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	fw, dirtied := f.Read(line(1), 0)
	if fw != -1 || dirtied {
		t.Fatalf("first read should come from LLC: %d %v", fw, dirtied)
	}
	if got := f.Holders(line(1)); len(got) != 1 || got[0] != 0 {
		t.Fatalf("holders = %v", got)
	}
}

func TestSnoopReadFromDirtyOwner(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Write(line(1), 2)
	fw, dirtied := f.Read(line(1), 5)
	if fw != 2 || !dirtied {
		t.Fatalf("read should forward from dirty owner: %d %v", fw, dirtied)
	}
	if f.DirtyOwner(line(1)) != -1 {
		t.Fatal("owner should downgrade")
	}
	if f.Forwards != 1 {
		t.Fatalf("Forwards = %d", f.Forwards)
	}
}

func TestSnoopSelfReadDoesNotForward(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Write(line(1), 2)
	fw, dirtied := f.Read(line(1), 2)
	if fw != -1 || dirtied {
		t.Fatal("owner re-reading its own line must not forward")
	}
}

func TestSnoopWriteInvalidates(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Read(line(1), 0)
	f.Read(line(1), 1)
	f.Read(line(1), 2)
	inv, dirtied := f.Write(line(1), 3)
	if len(inv) != 3 || dirtied {
		t.Fatalf("write outcome: inv=%v dirtied=%v", inv, dirtied)
	}
	if f.DirtyOwner(line(1)) != 3 {
		t.Fatal("writer should own dirty")
	}
	if got := f.Holders(line(1)); len(got) != 1 || got[0] != 3 {
		t.Fatalf("holders = %v", got)
	}
}

func TestSnoopWriteOverDirtyOwner(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Write(line(1), 0)
	inv, dirtied := f.Write(line(1), 1)
	if len(inv) != 1 || inv[0] != 0 || !dirtied {
		t.Fatalf("outcome: %v %v", inv, dirtied)
	}
}

func TestSnoopEvict(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Write(line(1), 0)
	f.Evict(line(1), 0, true)
	if f.Entries() != 0 {
		t.Fatal("entry should be removed")
	}
	// Unknown evictions are tolerated (non-inclusive LLC).
	f.Evict(line(9), 4, false)
}

func TestSnoopInvalidateAll(t *testing.T) {
	f := NewSnoopFilter(16, 35)
	f.Read(line(1), 0)
	f.Read(line(1), 1)
	got := f.InvalidateAll(line(1))
	if len(got) != 2 {
		t.Fatalf("invalidated %v", got)
	}
	if f.Entries() != 0 || f.Invalidations != 2 {
		t.Fatal("tracking should be cleared")
	}
}

func TestSnoopFilterPanics(t *testing.T) {
	for _, n := range []int{0, 40} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			NewSnoopFilter(n, 35)
		}()
	}
	f := NewSnoopFilter(4, 35)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for bad core")
		}
	}()
	f.Read(line(0), 7)
}

// Property: invariants hold under random op sequences and the dirty owner,
// when present, is always the unique holder.
func TestSnoopInvariantsUnderRandomOps(t *testing.T) {
	fn := func(ops []uint16) bool {
		const cores = 4
		f := NewSnoopFilter(cores, 35)
		for _, op := range ops {
			l := line(uint64(op) % 8)
			c := int(op>>3) % cores
			switch (op >> 5) % 3 {
			case 0:
				f.Read(l, c)
			case 1:
				f.Write(l, c)
			case 2:
				f.Evict(l, c, op&1 == 1)
			}
			if msg := f.CheckInvariants(); msg != "" {
				t.Logf("invariant violated: %s", msg)
				return false
			}
		}
		return true
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
