package coherence

import (
	"fmt"

	"repro/internal/mem"
)

// quotTable is the quotient-key-compressed lineStore: one uint64 per slot,
// half the open table's 16 B, so paper-scale directory and snoop-filter
// footprints move half as much memory per probe. Like openTable it is
// open-addressed, power-of-two sized, linearly probed, backward-shift
// deleted and incrementally grown — but instead of storing the full 8-byte
// key next to an 8-byte value, each slot packs
//
//	bit  0                   present
//	bits 1..23               value (V packed to ≤23 bits, see lineValue)
//	bits 24..24+dispBits-1   displacement from the key's home slot
//	top  fpBits bits         key fingerprint (quotient remainder)
//
// The key itself is never stored. A line's tag (address / LineSize, which
// the simulator's address map bounds well below 2^quotKeyBits) is mixed by
// an odd — hence invertible — multiplier mod 2^quotKeyBits; the top
// log2(len(slots)) bits of the mix are the home slot index and the
// remaining fpBits = quotKeyBits - log2(len(slots)) bits are the stored
// fingerprint. (home, fingerprint) therefore reconstructs the full mix
// exactly, and the displacement recovers home from the slot index, so a
// slot matches a probed key if and only if its fingerprint AND displacement
// both match — no false positives, ever (the bit-identity contract,
// DESIGN.md §8). Because dispBits = 64-24-fpBits = log2(len(slots))+2, a
// displacement can never overflow its field: probe distances are bounded
// by the table size.
//
// Growth doubles the table: one more home bit, one less fingerprint bit.
// The draining table keeps its own geometry (oldShift/oldDispBits) and
// marks migrated/deleted slots with a tombstone so its probe chains
// survive until fully drained, exactly like openTable.
type quotTable[V lineValue[V]] struct {
	slots    []uint64
	mask     uint64 // len(slots)-1
	shift    uint   // fingerprint width = quotKeyBits - log2(len(slots))
	dispBits uint   // displacement field width = 64 - 24 - shift
	n        int    // live entries in slots

	// Pre-growth table still draining into slots.
	old         []uint64
	oldMask     uint64
	oldShift    uint
	oldDispBits uint
	oldN        int // live entries left in old
	oldPos      int // next old slot to migrate

	// ref/sync scratch: ref unpacks the found slot's value here and sync
	// packs it back into the word it came from.
	scratch V
	refWord *uint64
}

// lineValue is the packing contract quotTable requires of its value type:
// packValue must round-trip the value through at most quotValueBits bits.
// Both coherence entry types fit in 23 bits for up to quotMaxCores cores
// (16-bit sharer mask + 5-bit owner + 2-bit owner-state code).
type lineValue[V any] interface {
	packValue() uint64
	unpackValue(uint64) V
}

const (
	// quotKeyBits bounds the tags (line address / LineSize) the compressed
	// table can hold. The workload address map tops out below 2^42 bytes
	// (tag < 2^36, see internal/workload's region bases), leaving 4 bits of
	// headroom; put panics past the bound, and lookups of out-of-range keys
	// report absent (nothing past the bound can have been stored).
	quotKeyBits = 38
	quotKeyMask = uint64(1)<<quotKeyBits - 1

	// quotMaxCores bounds the sharer mask that fits the 23-bit packed value.
	quotMaxCores = 16

	quotValueBits  = 23
	quotValueShift = 1
	quotValueMask  = (uint64(1)<<quotValueBits - 1) << quotValueShift
	quotDispShift  = quotValueShift + quotValueBits // 24

	quotPresent = uint64(1)
	// quotTombstone marks a migrated/deleted slot of a draining table: not
	// empty (probe chains continue across it) and never equal to a live
	// word (live words always carry the present bit).
	quotTombstone = uint64(2)

	// quotMul is the golden-ratio multiplicative-hash constant truncated to
	// the key domain and forced odd, so it is invertible mod 2^quotKeyBits.
	quotMul = (0x9E3779B97F4A7C15 >> (64 - quotKeyBits)) | 1
)

// quotMulInv is quotMul's modular inverse mod 2^quotKeyBits (Newton
// iteration doubles the valid bit count each step), used to recover the
// tag from a reconstructed mix in forEach.
var quotMulInv = func() uint64 {
	inv := uint64(quotMul) // odd: correct to 1 bit and seed for Newton
	for i := 0; i < 6; i++ {
		inv *= 2 - quotMul*inv
	}
	return inv & quotKeyMask
}()

func newQuotTable[V lineValue[V]]() *quotTable[V] {
	return &quotTable[V]{
		slots:    make([]uint64, minTableSlots),
		mask:     minTableSlots - 1,
		shift:    quotKeyBits - 8, // log2(minTableSlots) = 8
		dispBits: 64 - quotDispShift - (quotKeyBits - 8),
	}
}

// quotMix maps a tag to its table-independent mix; home and fingerprint
// are its top and bottom bit fields per table geometry.
func quotMix(tag uint64) uint64 { return tag * quotMul & quotKeyMask }

func (t *quotTable[V]) size() int         { return t.n + t.oldN }
func (t *quotTable[V]) bytesPerSlot() int { return 8 }

// find returns a pointer to the key's slot word, or nil. The probe
// compares the slot's upper 40 bits (fingerprint|displacement) against an
// expected value that simply increments per step: at probe distance d the
// matching slot must hold exactly fp<<dispBits | d.
func (t *quotTable[V]) find(line mem.LineAddr) *uint64 {
	tag := uint64(line) / mem.LineSize
	if tag > quotKeyMask {
		return nil // out-of-range keys are never stored (put panics)
	}
	h := quotMix(tag)
	i := h >> t.shift
	expect := (h & (uint64(1)<<t.shift - 1)) << t.dispBits
	for {
		w := t.slots[i]
		if w == 0 {
			break
		}
		if w&quotPresent != 0 && w>>quotDispShift == expect {
			return &t.slots[i]
		}
		i = (i + 1) & t.mask
		expect++
	}
	if t.old != nil {
		i = h >> t.oldShift
		expect = (h & (uint64(1)<<t.oldShift - 1)) << t.oldDispBits
		for {
			w := t.old[i]
			if w == 0 {
				break
			}
			if w&quotPresent != 0 && w>>quotDispShift == expect {
				return &t.old[i]
			}
			i = (i + 1) & t.oldMask
			expect++
		}
	}
	return nil
}

func (t *quotTable[V]) get(line mem.LineAddr) (V, bool) {
	if p := t.find(line); p != nil {
		var zero V
		return zero.unpackValue(*p >> quotValueShift & (uint64(1)<<quotValueBits - 1)), true
	}
	var zero V
	return zero, false
}

// ref returns a pointer to an unpacked copy of the line's value, or nil
// when absent. Unlike openTable's ref, mutations through the pointer reach
// the table only when sync is called; the pointer (and the pending sync)
// are valid only until the next put/del.
func (t *quotTable[V]) ref(line mem.LineAddr) *V {
	p := t.find(line)
	if p == nil {
		return nil
	}
	var zero V
	t.scratch = zero.unpackValue(*p >> quotValueShift & (uint64(1)<<quotValueBits - 1))
	t.refWord = p
	return &t.scratch
}

// sync packs the scratch value mutated through ref back into its slot,
// leaving fingerprint and displacement untouched.
func (t *quotTable[V]) sync() {
	*t.refWord = *t.refWord&^quotValueMask | t.scratch.packValue()<<quotValueShift
}

func (t *quotTable[V]) put(line mem.LineAddr, v V) {
	tag := uint64(line) / mem.LineSize
	if tag > quotKeyMask {
		panic(fmt.Sprintf("coherence: line %#x exceeds the quotient table's %d-bit key domain",
			uint64(line), quotKeyBits))
	}
	if t.old != nil {
		t.migrateSome()
	}
	if (t.n+t.oldN+1)*maxLoadDen > len(t.slots)*maxLoadNum {
		t.grow()
	}
	h := quotMix(tag)
	if t.old != nil {
		// The key must live in exactly one table: tombstone any old copy.
		t.delOld(h)
	}
	i := h >> t.shift
	expect := (h & (uint64(1)<<t.shift - 1)) << t.dispBits
	for {
		w := t.slots[i]
		if w == 0 {
			t.slots[i] = expect<<quotDispShift | v.packValue()<<quotValueShift | quotPresent
			t.n++
			return
		}
		if w>>quotDispShift == expect {
			t.slots[i] = w&^quotValueMask | v.packValue()<<quotValueShift
			return
		}
		i = (i + 1) & t.mask
		expect++
	}
}

func (t *quotTable[V]) del(line mem.LineAddr) {
	tag := uint64(line) / mem.LineSize
	if tag > quotKeyMask {
		return
	}
	if t.old != nil {
		t.migrateSome()
	}
	h := quotMix(tag)
	if t.delLive(h) {
		return
	}
	if t.old != nil {
		t.delOld(h)
	}
}

// delLive removes the key from the live table with backward-shift
// deletion. A stored displacement directly encodes how far an entry sits
// from its home, so the may-shift test — "probing from its home would have
// crossed the hole" — is a single compare against the shift distance.
func (t *quotTable[V]) delLive(h uint64) bool {
	i := h >> t.shift
	expect := (h & (uint64(1)<<t.shift - 1)) << t.dispBits
	for {
		w := t.slots[i]
		if w == 0 {
			return false
		}
		if w>>quotDispShift == expect {
			break
		}
		i = (i + 1) & t.mask
		expect++
	}
	t.n--
	hole := i
	for j := (i + 1) & t.mask; ; j = (j + 1) & t.mask {
		w := t.slots[j]
		if w == 0 {
			break
		}
		dj := (j - hole) & t.mask
		if w>>quotDispShift&(uint64(1)<<t.dispBits-1) >= dj {
			// Shifting back by dj decrements the displacement field; the
			// guard guarantees no borrow into the value bits.
			t.slots[hole] = w - dj<<quotDispShift
			hole = j
		}
	}
	t.slots[hole] = 0
	return true
}

// delOld tombstones the key in the draining table (its probe chains must
// keep working until the drain completes, so slots are never emptied).
func (t *quotTable[V]) delOld(h uint64) {
	i := h >> t.oldShift
	expect := (h & (uint64(1)<<t.oldShift - 1)) << t.oldDispBits
	for {
		w := t.old[i]
		if w == 0 {
			return
		}
		if w&quotPresent != 0 && w>>quotDispShift == expect {
			t.old[i] = quotTombstone
			t.oldN--
			return
		}
		i = (i + 1) & t.oldMask
		expect++
	}
}

// grow starts an incremental doubling. Any previous drain finishes first,
// so at most one old table exists at a time.
func (t *quotTable[V]) grow() {
	for t.old != nil {
		t.migrateSome()
	}
	if t.shift == 1 {
		// 2^(quotKeyBits-1) slots would leave no fingerprint; at 8 B/slot
		// that is a ~1 TB table, far past any simulated footprint.
		panic("coherence: quotient table grown past its key domain")
	}
	t.old, t.oldMask, t.oldShift, t.oldDispBits = t.slots, t.mask, t.shift, t.dispBits
	t.oldN, t.oldPos = t.n, 0
	t.slots = make([]uint64, len(t.old)*2)
	t.mask = uint64(len(t.slots) - 1)
	t.shift--
	t.dispBits++
	t.n = 0
}

// migrateSome moves a bounded chunk of entries from the draining table
// into the live one, reconstructing each key's mix from its slot index,
// displacement and fingerprint under the old geometry. Callers guard the
// call with `t.old != nil` so the steady state (no drain in progress)
// pays a branch, not a call.
func (t *quotTable[V]) migrateSome() {
	if t.old == nil {
		return
	}
	end := t.oldPos + migrateChunk
	if end > len(t.old) {
		end = len(t.old)
	}
	for ; t.oldPos < end; t.oldPos++ {
		w := t.old[t.oldPos]
		if w&quotPresent == 0 {
			continue // empty or tombstone
		}
		disp := w >> quotDispShift & (uint64(1)<<t.oldDispBits - 1)
		fp := w >> (quotDispShift + t.oldDispBits)
		home := (uint64(t.oldPos) - disp) & t.oldMask
		h := home<<t.oldShift | fp
		t.insertFresh(h, w>>quotValueShift&(uint64(1)<<quotValueBits-1))
		t.old[t.oldPos] = quotTombstone
		t.oldN--
	}
	if t.oldPos == len(t.old) || t.oldN == 0 {
		t.old, t.oldMask, t.oldShift, t.oldDispBits, t.oldN, t.oldPos = nil, 0, 0, 0, 0, 0
	}
}

// insertFresh inserts a mix known to be absent from the live table
// (migration only; capacity is guaranteed by the pre-insert growth check,
// which counts draining entries too).
func (t *quotTable[V]) insertFresh(h, packedValue uint64) {
	i := h >> t.shift
	expect := (h & (uint64(1)<<t.shift - 1)) << t.dispBits
	for {
		if t.slots[i] == 0 {
			t.slots[i] = expect<<quotDispShift | packedValue<<quotValueShift | quotPresent
			t.n++
			return
		}
		i = (i + 1) & t.mask
		expect++
	}
}

func (t *quotTable[V]) forEach(fn func(mem.LineAddr, V)) {
	var zero V
	emit := func(i uint64, w uint64, shift, dispBits uint, mask uint64) {
		disp := w >> quotDispShift & (uint64(1)<<dispBits - 1)
		fp := w >> (quotDispShift + dispBits)
		h := ((i-disp)&mask)<<shift | fp
		tag := h * quotMulInv & quotKeyMask
		fn(mem.LineAddr(tag*mem.LineSize), zero.unpackValue(w>>quotValueShift&(uint64(1)<<quotValueBits-1)))
	}
	for i, w := range t.slots {
		if w&quotPresent != 0 {
			emit(uint64(i), w, t.shift, t.dispBits, t.mask)
		}
	}
	if t.old != nil {
		for i, w := range t.old {
			if w&quotPresent != 0 {
				emit(uint64(i), w, t.oldShift, t.oldDispBits, t.oldMask)
			}
		}
	}
}
