package coherence

import (
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/sim"
)

// TestOpenTableAgainstMap drives the open-addressed table and a plain map
// through identical randomized put/get/del mixes, forcing several
// incremental growths and heavy tombstone churn, and demands identical
// contents throughout.
func TestOpenTableAgainstMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tab := newOpenTable[uint64]()
		ref := map[mem.LineAddr]uint64{}
		rng := sim.NewRNG(seed * 104729)

		// Key space ~4x the growth threshold so the table doubles a few
		// times while deletions keep the drain path busy. Line 0 included:
		// the key encoding must not confuse it with an empty slot.
		const keys = 4096
		line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }

		for i := 0; i < 200_000; i++ {
			k := line(rng.Uint64n(keys))
			switch rng.Uint64n(10) {
			case 0, 1, 2: // del
				tab.del(k)
				delete(ref, k)
			case 3: // get
				v, ok := tab.get(k)
				rv, rok := ref[k]
				if ok != rok || v != rv {
					t.Fatalf("seed %d op %d: get(%#x) = (%d,%v), want (%d,%v)", seed, i, uint64(k), v, ok, rv, rok)
				}
			default: // put (insert or overwrite)
				v := rng.Uint64()
				tab.put(k, v)
				ref[k] = v
			}
			if tab.size() != len(ref) {
				t.Fatalf("seed %d op %d: size %d, want %d", seed, i, tab.size(), len(ref))
			}
		}

		// Full content agreement, both directions.
		if msg := contentDiff(tab.forEach, ref); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}

	// Reserved: n distinct puts into a table reserved for n never grow
	// it, and its slab is the one growth would have reached.
	for _, n := range []int{1, 192, 193, 5000} {
		tab, grown := newOpenTable[uint64](), newOpenTable[uint64]()
		tab.reserve(n)
		slab := len(tab.slots)
		ref := map[mem.LineAddr]uint64{}
		for i := 0; i < n; i++ {
			k := line(uint64(i) * 7919)
			tab.put(k, uint64(i))
			grown.put(k, uint64(i))
			ref[k] = uint64(i)
		}
		if len(tab.slots) != slab || tab.old != nil {
			t.Fatalf("reserve(%d): slab %d -> %d, draining %v", n, slab, len(tab.slots), tab.old != nil)
		}
		if len(grown.slots) != slab {
			t.Fatalf("reserve(%d) sized %d slots, growth reached %d", n, slab, len(grown.slots))
		}
		if msg := contentDiff(tab.forEach, ref); msg != "" {
			t.Fatalf("reserve(%d): %s", n, msg)
		}
		tab.reserve(4 * n) // non-empty: ignored
		if len(tab.slots) != slab || tab.size() != n {
			t.Fatalf("reserve on a non-empty table resized it: %d slots, %d entries", len(tab.slots), tab.size())
		}
	}
}

// contentDiff compares a store's forEach view with a reference map in
// both directions, returning the first difference or "".
func contentDiff[V comparable](forEach func(func(mem.LineAddr, V)), ref map[mem.LineAddr]V) string {
	seen := map[mem.LineAddr]V{}
	msg := ""
	forEach(func(k mem.LineAddr, v V) {
		if _, dup := seen[k]; dup && msg == "" {
			msg = fmt.Sprintf("forEach visited %#x twice", uint64(k))
		}
		seen[k] = v
	})
	if msg != "" {
		return msg
	}
	if len(seen) != len(ref) {
		return fmt.Sprintf("forEach visited %d keys, want %d", len(seen), len(ref))
	}
	for k, v := range ref {
		if sv, ok := seen[k]; !ok || sv != v {
			return fmt.Sprintf("key %#x = (%v,%v), want %v", uint64(k), sv, ok, v)
		}
	}
	return ""
}

// TestOpenTableRefMutation checks in-place mutation through ref and the
// nil contract for absent keys, across a growth boundary.
func TestOpenTableRefMutation(t *testing.T) {
	tab := newOpenTable[int]()
	line := func(i uint64) mem.LineAddr { return mem.LineAddr(i * mem.LineSize) }
	if tab.ref(line(7)) != nil {
		t.Fatal("ref of absent key should be nil")
	}
	// Insert enough to force at least one doubling (threshold 3/4*256).
	for i := uint64(0); i < 1000; i++ {
		tab.put(line(i), int(i))
	}
	for i := uint64(0); i < 1000; i++ {
		p := tab.ref(line(i))
		if p == nil || *p != int(i) {
			t.Fatalf("ref(%d) = %v", i, p)
		}
		*p = int(i) * 3
	}
	for i := uint64(0); i < 1000; i++ {
		if v, ok := tab.get(line(i)); !ok || v != int(i)*3 {
			t.Fatalf("get(%d) after ref mutation = (%d,%v)", i, v, ok)
		}
	}
	if tab.size() != 1000 {
		t.Fatalf("size = %d", tab.size())
	}
}

// TestOpenTableBackwardShift exercises deletion inside a probe cluster:
// keys engineered to collide must remain reachable after a middle element
// of the cluster is removed (the backward-shift invariant).
func TestOpenTableBackwardShift(t *testing.T) {
	tab := newOpenTable[uint64]()
	// Find keys with the same home slot under the initial mask.
	var cluster []mem.LineAddr
	target := home(tableKey(mem.LineAddr(0)), tab.mask)
	for i := uint64(0); len(cluster) < 6 && i < 1_000_000; i++ {
		k := mem.LineAddr(i * mem.LineSize)
		if home(tableKey(k), tab.mask) == target {
			cluster = append(cluster, k)
		}
	}
	if len(cluster) < 6 {
		t.Skip("could not build a collision cluster")
	}
	for i, k := range cluster {
		tab.put(k, uint64(i))
	}
	// Delete from the middle, then the head; everything else must survive.
	tab.del(cluster[2])
	tab.del(cluster[0])
	for i, k := range cluster {
		v, ok := tab.get(k)
		switch i {
		case 0, 2:
			if ok {
				t.Fatalf("deleted key %d still present", i)
			}
		default:
			if !ok || v != uint64(i) {
				t.Fatalf("cluster key %d lost after deletes: (%d,%v)", i, v, ok)
			}
		}
	}
}

func TestStoreKindString(t *testing.T) {
	if OpenTable.String() != "open-table" || QuotTable.String() != "quot-table" {
		t.Fatal("StoreKind names wrong")
	}
}
