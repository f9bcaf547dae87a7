package coherence

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// This file serializes the three lineStore implementations exactly —
// full slabs, not just live entries — so a restored table is
// field-for-field identical to the one that was snapshotted: same probe
// chains, same draining-migration position, same growth schedule. That
// makes the determinism argument trivial (identical state ⇒ identical
// behaviour) and keeps restore at memcpy speed for the quotient store's
// raw []uint64 slab, which is the paper-scale configuration.
//
// The generic helpers are constrained to value types that are plain
// uint64 words (both coherence entry types are), so open/map entries
// round-trip through uint64 without per-type code.

// storeKindOf recovers the concrete StoreKind behind a hotStore.
func storeKindOf[V lineValue[V]](s hotStore[V]) StoreKind {
	switch {
	case s.fastQ != nil:
		return QuotTable
	case s.fast != nil:
		return OpenTable
	default:
		return MapStore
	}
}

// validTableGeom checks the shared power-of-two slab invariants.
func validTableGeom(slabLen int, mask uint64, n int) bool {
	if slabLen < minTableSlots || slabLen&(slabLen-1) != 0 {
		return false
	}
	return mask == uint64(slabLen-1) && n >= 0 && n <= slabLen
}

func snapshotStore[V interface {
	lineValue[V]
	~uint64
}](w *checkpoint.Writer, s hotStore[V]) {
	kind := storeKindOf(s)
	w.Section("coherence.store")
	w.U8(uint8(kind))
	switch kind {
	case QuotTable:
		t := s.fastQ
		w.U64(t.mask)
		w.U64(uint64(t.shift))
		w.U64(uint64(t.dispBits))
		w.I64(int64(t.n))
		checkpoint.WriteSlab(w, t.slots)
		w.U64(t.oldMask)
		w.U64(uint64(t.oldShift))
		w.U64(uint64(t.oldDispBits))
		w.I64(int64(t.oldN))
		w.I64(int64(t.oldPos))
		checkpoint.WriteSlab(w, t.old)
	case OpenTable:
		t := s.fast
		w.U64(t.mask)
		w.I64(int64(t.n))
		snapshotSlots(w, t.slots)
		w.U64(t.oldMask)
		w.I64(int64(t.oldN))
		w.I64(int64(t.oldPos))
		snapshotSlots(w, t.old)
	default:
		m := s.lineStore.(mapStore[V])
		lines := make([]uint64, 0, len(m))
		for line := range m {
			lines = append(lines, uint64(line))
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
		w.I64(int64(len(lines)))
		for _, line := range lines {
			w.U64(line)
			w.U64(uint64(*m[mem.LineAddr(line)]))
		}
	}
}

// snapshotSlots writes a full openTable slab (keys and packed values,
// empty and tombstoned slots included) so probe chains survive exactly.
func snapshotSlots[V ~uint64](w *checkpoint.Writer, slots []slot[V]) {
	w.U64(uint64(len(slots)))
	for i := range slots {
		w.U64(slots[i].key)
		w.U64(uint64(slots[i].val))
	}
}

// restoreSlots reads a slab written by snapshotSlots. The Reader bounds
// its length by the bytes the file still holds, 16 per slot, before
// anything is allocated.
func restoreSlots[V ~uint64](r *checkpoint.Reader) []slot[V] {
	n := r.SliceLen(16)
	if r.Err() != nil {
		return nil
	}
	out := make([]slot[V], n)
	for i := range out {
		out[i].key = r.U64()
		out[i].val = V(r.U64())
	}
	return out
}

func restoreStore[V interface {
	lineValue[V]
	~uint64
}](r *checkpoint.Reader, want StoreKind) (hotStore[V], error) {
	var zero hotStore[V]
	if err := r.Section("coherence.store"); err != nil {
		return zero, err
	}
	kind := StoreKind(r.U8())
	if r.Err() != nil {
		return zero, r.Err()
	}
	if kind != want {
		return zero, fmt.Errorf("coherence: checkpoint store kind %v, system uses %v", kind, want)
	}
	switch kind {
	case QuotTable:
		t := &quotTable[V]{}
		t.mask = r.U64()
		t.shift = uint(r.U64())
		t.dispBits = uint(r.U64())
		t.n = int(r.I64())
		t.slots = r.U64s()
		t.oldMask = r.U64()
		t.oldShift = uint(r.U64())
		t.oldDispBits = uint(r.U64())
		t.oldN = int(r.I64())
		t.oldPos = int(r.I64())
		t.old = r.U64s()
		if err := r.Err(); err != nil {
			return zero, err
		}
		if len(t.old) == 0 {
			t.old = nil // probe paths test old != nil, not len
		}
		if !validTableGeom(len(t.slots), t.mask, t.n) ||
			t.shift != quotKeyBits-uint(bits.Len(uint(len(t.slots))-1)) ||
			t.dispBits != 64-quotDispShift-t.shift {
			return zero, fmt.Errorf("coherence: corrupt quot-table geometry (%d slots, mask %#x, shift %d, disp %d)",
				len(t.slots), t.mask, t.shift, t.dispBits)
		}
		if len(t.old) > 0 {
			if !validTableGeom(len(t.old), t.oldMask, t.oldN) ||
				t.oldPos < 0 || t.oldPos > len(t.old) ||
				t.oldShift != quotKeyBits-uint(bits.Len(uint(len(t.old))-1)) ||
				t.oldDispBits != 64-quotDispShift-t.oldShift {
				return zero, fmt.Errorf("coherence: corrupt draining quot-table geometry (%d slots)", len(t.old))
			}
		} else if t.oldN != 0 || t.oldPos != 0 || t.oldMask != 0 {
			return zero, fmt.Errorf("coherence: draining quot-table fields set with no table")
		}
		return hotStore[V]{lineStore: t, fastQ: t}, nil
	case OpenTable:
		t := &openTable[V]{}
		t.mask = r.U64()
		t.n = int(r.I64())
		t.slots = restoreSlots[V](r)
		t.oldMask = r.U64()
		t.oldN = int(r.I64())
		t.oldPos = int(r.I64())
		t.old = restoreSlots[V](r)
		if err := r.Err(); err != nil {
			return zero, err
		}
		if len(t.old) == 0 {
			t.old = nil // probe paths test old != nil, not len
		}
		if !validTableGeom(len(t.slots), t.mask, t.n) {
			return zero, fmt.Errorf("coherence: corrupt open-table geometry (%d slots, mask %#x)", len(t.slots), t.mask)
		}
		if len(t.old) > 0 {
			if !validTableGeom(len(t.old), t.oldMask, t.oldN) || t.oldPos < 0 || t.oldPos > len(t.old) {
				return zero, fmt.Errorf("coherence: corrupt draining open-table geometry (%d slots)", len(t.old))
			}
		} else if t.oldN != 0 || t.oldPos != 0 || t.oldMask != 0 {
			return zero, fmt.Errorf("coherence: draining open-table fields set with no table")
		}
		return hotStore[V]{lineStore: t, fast: t}, nil
	default:
		n := r.SliceLen(16) // a line and a value per entry
		if r.Err() != nil {
			return zero, r.Err()
		}
		m := make(mapStore[V], n)
		for i := 0; i < n; i++ {
			line := mem.LineAddr(r.U64())
			v := V(r.U64())
			m[line] = &v
		}
		if err := r.Err(); err != nil {
			return zero, err
		}
		return hotStore[V]{lineStore: m}, nil
	}
}

// Snapshot serializes the snoop filter: stat counters plus the exact
// line-store slab (see the file comment).
func (f *SnoopFilter) Snapshot(w *checkpoint.Writer) {
	w.Section("coherence.SnoopFilter")
	w.I64(int64(f.cores))
	w.U64(f.Forwards)
	w.U64(f.Invalidations)
	snapshotStore(w, f.entries)
}

// Restore overwrites a freshly constructed snoop filter. The core count
// and store kind must match the live configuration.
func (f *SnoopFilter) Restore(r *checkpoint.Reader) error {
	if err := r.Section("coherence.SnoopFilter"); err != nil {
		return err
	}
	cores := int(r.I64())
	forwards, invalidations := r.U64(), r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if cores != f.cores {
		return fmt.Errorf("coherence: checkpoint snoop filter for %d cores, system has %d", cores, f.cores)
	}
	entries, err := restoreStore[l1entry](r, storeKindOf(f.entries))
	if err != nil {
		return err
	}
	f.entries = entries
	f.Forwards = forwards
	f.Invalidations = invalidations
	return nil
}

// Snapshot serializes the directory: protocol/core geometry (validated
// on restore), stat counters, and the exact line-store slab.
func (d *Directory) Snapshot(w *checkpoint.Writer) {
	w.Section("coherence.Directory")
	w.U8(uint8(d.protocol))
	w.I64(int64(d.cores))
	w.U64(d.Reads)
	w.U64(d.Writes)
	w.U64(d.Upgrades)
	w.U64(d.Forwards)
	w.U64(d.Invalidations)
	w.U64(d.MemWritebacks)
	snapshotStore(w, d.entries)
}

// Restore overwrites a freshly constructed directory. Protocol, core
// count and store kind must match the live configuration.
func (d *Directory) Restore(r *checkpoint.Reader) error {
	if err := r.Section("coherence.Directory"); err != nil {
		return err
	}
	protocol := Protocol(r.U8())
	cores := int(r.I64())
	var c [6]uint64
	for i := range c {
		c[i] = r.U64()
	}
	if err := r.Err(); err != nil {
		return err
	}
	if protocol != d.protocol || cores != d.cores {
		return fmt.Errorf("coherence: checkpoint directory protocol %d/%d cores, system has %d/%d",
			protocol, cores, d.protocol, d.cores)
	}
	entries, err := restoreStore[entry](r, storeKindOf(d.entries))
	if err != nil {
		return err
	}
	d.entries = entries
	d.Reads, d.Writes, d.Upgrades = c[0], c[1], c[2]
	d.Forwards, d.Invalidations, d.MemWritebacks = c[3], c[4], c[5]
	return nil
}
