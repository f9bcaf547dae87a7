package coherence

import (
	"math/bits"

	"repro/internal/checkpoint"
)

// This file walks the snoop filter's line-table store exactly — full
// slabs, not just live entries — so a restored table is field-for-field
// identical to the one that was checkpointed: same probe chains, same
// draining-migration position, same growth schedule. That makes the
// determinism argument trivial (identical state ⇒ identical behaviour)
// and keeps restore at memcpy speed for the quotient store's raw
// []uint64 slab. The receiver's store kind is shape: a decode fills the
// table the live Config built. The Directory has no checkpoint walk: its
// whole state is the vault arrays it views, which the hierarchy walks.

// storeKindOf recovers the concrete StoreKind behind a hotStore.
func storeKindOf[V lineValue[V]](s hotStore[V]) StoreKind {
	if s.fastQ != nil {
		return QuotTable
	}
	return OpenTable
}

// validTableGeom checks the shared power-of-two slab invariants.
func validTableGeom(slabLen int, mask uint64, n int) bool {
	if slabLen < minTableSlots || slabLen&(slabLen-1) != 0 {
		return false
	}
	return mask == uint64(slabLen-1) && n >= 0 && n <= slabLen
}

// validDrain checks a draining table's fields: its geometry and cursor
// when old holds a slab, all zero when it does not.
func validDrain(oldLen int, oldMask uint64, oldN, oldPos int) bool {
	if oldLen == 0 {
		return oldMask == 0 && oldN == 0 && oldPos == 0
	}
	return validTableGeom(oldLen, oldMask, oldN) && oldPos >= 0 && oldPos <= oldLen
}

// quotGeom reports whether shift and dispBits are the widths a quotient
// slab of slabLen slots carries.
func quotGeom(slabLen int, shift, dispBits uint) bool {
	return shift == quotKeyBits-uint(bits.Len(uint(slabLen)-1)) && dispBits == 64-quotDispShift-shift
}

func checkpointStore[V interface {
	lineValue[V]
	~uint64
}](c *checkpoint.Codec, s hotStore[V]) {
	c.Section("coherence.store")
	checkpoint.Shape(c, "coherence store kind", storeKindOf(s), checkpoint.Uint)
	if t := s.fastQ; t != nil {
		checkpoint.Uint(c, &t.mask)
		checkpoint.Int(c, &t.shift)
		checkpoint.Int(c, &t.dispBits)
		checkpoint.Int(c, &t.n)
		checkpoint.DataSlab(c, &t.slots)
		checkpoint.Uint(c, &t.oldMask)
		checkpoint.Int(c, &t.oldShift)
		checkpoint.Int(c, &t.oldDispBits)
		checkpoint.Int(c, &t.oldN)
		checkpoint.Int(c, &t.oldPos)
		checkpoint.DataSlab(c, &t.old)
		c.Check(validTableGeom(len(t.slots), t.mask, t.n) && quotGeom(len(t.slots), t.shift, t.dispBits),
			"coherence: corrupt quot-table geometry (%d slots, mask %#x, shift %d, disp %d)",
			len(t.slots), t.mask, t.shift, t.dispBits)
		c.Check(validDrain(len(t.old), t.oldMask, t.oldN, t.oldPos) &&
			(t.old == nil || quotGeom(len(t.old), t.oldShift, t.oldDispBits)),
			"coherence: corrupt draining quot-table geometry (%d slots)", len(t.old))
		return
	}
	t := s.fast
	checkpoint.Uint(c, &t.mask)
	checkpoint.Int(c, &t.n)
	checkpointSlots(c, &t.slots)
	checkpoint.Uint(c, &t.oldMask)
	checkpoint.Int(c, &t.oldN)
	checkpoint.Int(c, &t.oldPos)
	checkpointSlots(c, &t.old)
	c.Check(validTableGeom(len(t.slots), t.mask, t.n),
		"coherence: corrupt open-table geometry (%d slots, mask %#x)", len(t.slots), t.mask)
	c.Check(validDrain(len(t.old), t.oldMask, t.oldN, t.oldPos),
		"coherence: corrupt draining open-table geometry (%d slots)", len(t.old))
}

// checkpointSlots walks a full openTable slab (keys and packed values,
// empty and tombstoned slots included) so probe chains survive exactly.
// A decode allocates the slab once its length has passed the bound of
// the bytes the source holds, 16 per slot; an empty slab decodes as nil
// (probe paths test old != nil, not its length).
func checkpointSlots[V ~uint64](c *checkpoint.Codec, slots *[]slot[V]) {
	n := len(*slots)
	checkpoint.Len(c, &n, 16)
	if c.Decoding() {
		*slots = nil
		if n > 0 {
			*slots = make([]slot[V], n)
		}
	}
	for i := range *slots {
		checkpoint.Uint(c, &(*slots)[i].key)
		checkpoint.Uint(c, &(*slots)[i].val)
	}
}

// Checkpoint walks the snoop filter: stat counters plus the exact
// line-store slab (see the file comment). The core count is shape.
func (f *SnoopFilter) Checkpoint(c *checkpoint.Codec) {
	c.Section("coherence.SnoopFilter")
	checkpoint.Shape(c, "coherence.SnoopFilter cores", f.cores, checkpoint.Int)
	checkpoint.Uint(c, &f.Forwards)
	checkpoint.Uint(c, &f.Invalidations)
	checkpointStore(c, f.entries)
}
