package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
)

// qval is a 23-bit test payload implementing the quotient table's value
// packing contract.
type qval uint32

func (q qval) packValue() uint64       { return uint64(q) & (1<<quotValueBits - 1) }
func (qval) unpackValue(w uint64) qval { return qval(w) }

func qrand(rng *sim.RNG) qval { return qval(rng.Uint64() & (1<<quotValueBits - 1)) }

// TestQuotMulInverse pins the precomputed modular inverse the key
// reconstruction (forEach, migration) depends on.
func TestQuotMulInverse(t *testing.T) {
	if quotMul*quotMulInv&quotKeyMask != 1 {
		t.Fatalf("quotMulInv is not the inverse of quotMul mod 2^%d", quotKeyBits)
	}
	rng := sim.NewRNG(99)
	for i := 0; i < 1000; i++ {
		tag := rng.Uint64() & quotKeyMask
		if quotMix(tag)*quotMulInv&quotKeyMask != tag {
			t.Fatalf("mix of tag %#x does not invert", tag)
		}
	}
}

// TestQuotTableAgainstMap drives the compressed table and a plain map
// through identical randomized put/get/del mixes, forcing several
// incremental growths (each shrinking the fingerprint by a bit) and heavy
// deletion churn, and demands identical contents throughout.
func TestQuotTableAgainstMap(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		tab := newQuotTable[qval]()
		ref := map[mem.LineAddr]qval{}
		rng := sim.NewRNG(seed * 104729)

		// Key space ~4x the growth threshold, with strided high-bit keys in
		// the mix so fingerprints exercise their full width. Line 0
		// included: the encoding must not confuse it with an empty slot.
		const keys = 4096
		line := func(i uint64) mem.LineAddr {
			l := i * mem.LineSize
			if i%3 == 0 {
				l += (i % 64) << 30 // spread across high address bits
			}
			return mem.LineAddr(l)
		}

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
			case 4: // ref+sync mutation
				p := tab.ref(k)
				rv, rok := ref[k]
				if (p != nil) != rok {
					t.Fatalf("seed %d op %d: ref(%#x) presence %v, want %v", seed, i, uint64(k), p != nil, rok)
				}
				if p != nil {
					if *p != rv {
						t.Fatalf("seed %d op %d: ref(%#x) = %d, want %d", seed, i, uint64(k), *p, rv)
					}
					*p = qrand(rng)
					tab.sync()
					ref[k] = *p
				}
			default: // put (insert or overwrite)
				v := qrand(rng)
				tab.put(k, v)
				ref[k] = v
			}
			if tab.size() != len(ref) {
				t.Fatalf("seed %d op %d: size %d, want %d", seed, i, tab.size(), len(ref))
			}
		}

		// Full content agreement, both directions — forEach reconstructs
		// every key from (slot, displacement, fingerprint) alone.
		if msg := contentDiff(tab.forEach, ref); msg != "" {
			t.Fatalf("seed %d: %s", seed, msg)
		}
	}

	// Reserved: n distinct puts into a table reserved for n never grow
	// it, and its slab and fingerprint width are the ones growth would
	// have reached.
	line := func(i uint64) mem.LineAddr { return mem.LineAddr(i*mem.LineSize + (i%64)<<30) }
	for _, n := range []int{1, 192, 193, 5000} {
		tab, grown := newQuotTable[qval](), newQuotTable[qval]()
		tab.reserve(n)
		slab, shift := len(tab.slots), tab.shift
		ref := map[mem.LineAddr]qval{}
		rng := sim.NewRNG(uint64(n))
		for i := 0; i < n; i++ {
			k, v := line(uint64(i)), qrand(rng)
			tab.put(k, v)
			grown.put(k, v)
			ref[k] = v
		}
		if len(tab.slots) != slab || tab.shift != shift || tab.old != nil {
			t.Fatalf("reserve(%d): slab %d -> %d, shift %d -> %d, draining %v",
				n, slab, len(tab.slots), shift, tab.shift, tab.old != nil)
		}
		if len(grown.slots) != slab || grown.shift != shift || grown.dispBits != tab.dispBits {
			t.Fatalf("reserve(%d) sized %d slots (shift %d, disp %d), growth reached %d (shift %d, disp %d)",
				n, slab, shift, tab.dispBits, len(grown.slots), grown.shift, grown.dispBits)
		}
		if msg := contentDiff(tab.forEach, ref); msg != "" {
			t.Fatalf("reserve(%d): %s", n, msg)
		}
		tab.reserve(4 * n) // non-empty: ignored
		if len(tab.slots) != slab || tab.shift != shift || tab.size() != n {
			t.Fatalf("reserve on a non-empty table resized it: %d slots, shift %d, %d entries",
				len(tab.slots), tab.shift, tab.size())
		}
	}
}

// TestQuotTableBackwardShift exercises deletion inside a probe cluster:
// keys engineered to collide must remain reachable — with their stored
// displacements rewritten — after middle elements of the cluster are
// removed.
func TestQuotTableBackwardShift(t *testing.T) {
	tab := newQuotTable[qval]()
	var cluster []mem.LineAddr
	target := quotMix(0) >> tab.shift
	for i := uint64(0); len(cluster) < 6 && i < 1_000_000; i++ {
		k := mem.LineAddr(i * mem.LineSize)
		if quotMix(uint64(k)/mem.LineSize)>>tab.shift == target {
			cluster = append(cluster, k)
		}
	}
	if len(cluster) < 6 {
		t.Skip("could not build a collision cluster")
	}
	for i, k := range cluster {
		tab.put(k, qval(i+1))
	}
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
			if !ok || v != qval(i+1) {
				t.Fatalf("cluster key %d lost after deletes: (%d,%v)", i, v, ok)
			}
		}
	}
}

// TestQuotTableKeyDomain pins the key-domain contract: lookups and
// deletions of out-of-range lines report absent, and put fails loudly.
func TestQuotTableKeyDomain(t *testing.T) {
	tab := newQuotTable[qval]()
	big := mem.LineAddr(uint64(1) << (quotKeyBits + 7)) // tag = 2^(38+1)
	if _, ok := tab.get(big); ok {
		t.Fatal("out-of-range key reported present")
	}
	tab.del(big) // no-op, must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic storing a key past the fingerprint domain")
		}
	}()
	tab.put(big, 1)
}

func TestQuotStoreKindGates(t *testing.T) {
	if QuotTable.String() != "quot-table" {
		t.Fatalf("StoreKind name %q", QuotTable.String())
	}
	for kind, want := range map[StoreKind]int{QuotTable: 8, OpenTable: 16} {
		if got := NewSnoopFilterWithStore(16, kind).BytesPerSlot(); got != want {
			t.Fatalf("%v BytesPerSlot: %d, want %d", kind, got, want)
		}
	}
	// The quotient table holds up to 16 cores and 38-bit line addresses
	// (sharing groups 0-3); either bound past it takes the open table.
	for _, c := range []struct {
		cores    int
		lineBits uint
		want     StoreKind
	}{
		{16, 35, QuotTable}, {16, 38, QuotTable}, {16, 39, OpenTable}, {16, 40, OpenTable},
		{1, 38, QuotTable}, {17, 35, OpenTable}, {32, 36, OpenTable},
	} {
		if got := DefaultStore(c.cores, c.lineBits); got != c.want {
			t.Fatalf("DefaultStore(%d cores, %d-bit lines) = %v, want %v", c.cores, c.lineBits, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic: quotient store beyond its core budget")
		}
	}()
	NewSnoopFilterWithStore(32, QuotTable)
}

// fullWidthDirectory is what TestFullWidthEntries32Cores asks of a
// directory: the vault view (through vaultDir) and the line-table oracle
// both provide it.
type fullWidthDirectory interface {
	Read(line mem.LineAddr, core int) ReadOutcome
	WriteMask(line mem.LineAddr, core int) WriteMaskOutcome
	StateOf(line mem.LineAddr, core int) cache.State
	SharersMask(line mem.LineAddr) uint32
	Owner(line mem.LineAddr) int
	CheckInvariants() string
}

// TestFullWidthEntries32Cores pins the full 32-core width of the sharer
// masks: the snoop filter's packed entries on the open table and the map
// reference (regression: a 16-bit mask field silently truncated cores
// 16-31 and overflowed the owner field), the line-table oracle on both,
// and the vault view.
func TestFullWidthEntries32Cores(t *testing.T) {
	for kind, build := range map[string]func() (*SnoopFilter, fullWidthDirectory){
		"open-table": func() (*SnoopFilter, fullWidthDirectory) {
			return NewSnoopFilterWithStore(32, OpenTable), newLineDirectory(32, MOESI, OpenTable)
		},
		"map": func() (*SnoopFilter, fullWidthDirectory) {
			return newMapSnoopFilter(32), newMapLineDirectory(32, MOESI)
		},
		"vault-view": func() (*SnoopFilter, fullWidthDirectory) {
			return newMapSnoopFilter(32), newVaultDir(32, MOESI, 64, 1, 35)
		},
	} {
		f, d := build()
		l := mem.LineAddr(4096)
		for c := 0; c < 32; c++ {
			f.Read(l, c)
		}
		if got := f.HoldersMask(l); got != ^uint32(0) {
			t.Fatalf("%v: 32-core holder mask = %#x, want all ones", kind, got)
		}
		if inv, _ := f.WriteMask(l, 31); inv != ^uint32(0)&^(1<<31) {
			t.Fatalf("%v: WriteMask(31) invalidated %#x", kind, inv)
		}
		if f.DirtyOwner(l) != 31 {
			t.Fatalf("%v: dirty owner = %d, want 31", kind, f.DirtyOwner(l))
		}

		d.Read(l, 31)
		if d.Owner(l) != 31 || d.StateOf(l, 31) != cache.Exclusive {
			t.Fatalf("%v: owner %d state %v, want 31/E", kind, d.Owner(l), d.StateOf(l, 31))
		}
		for c := 0; c < 31; c++ {
			d.Read(l, c)
		}
		if got := d.SharersMask(l); got != ^uint32(0) {
			t.Fatalf("%v: 32-core sharer mask = %#x, want all ones", kind, got)
		}
		out := d.WriteMask(l, 31)
		if out.InvalidatedMask != ^uint32(0)&^(1<<31) || d.Owner(l) != 31 {
			t.Fatalf("%v: write by core 31: %+v owner %d", kind, out, d.Owner(l))
		}
		if msg := d.CheckInvariants(); msg != "" {
			t.Fatalf("%v: %s", kind, msg)
		}
	}
}
