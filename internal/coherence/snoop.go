package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/mem"
)

// SnoopFilter tracks which private L1s hold copies of lines above a shared
// last-level cache, implementing the baseline's MESI protocol with the LLC
// as the point of coherence (paper Table II: non-inclusive MESI). A dirty
// L1 copy read by another core is forwarded and the dirty data is absorbed
// by the LLC, not main memory.
//
// Sharer sets are returned as bit masks (bit c: core c) by the queries —
// HoldersMask, WriteMask, InvalidateAllMask — which allocate nothing;
// iterate them with bits.TrailingZeros32.
type SnoopFilter struct {
	cores   int
	entries hotStore[l1entry]

	// Stats.
	Forwards      uint64
	Invalidations uint64
}

// l1entry is the packed per-line filter state: bits 0-31 the holder mask
// (bit c: core c's L1 holds the line), bits 32-37 the dirty owner + 1
// (0 = clean) — full 32-core width, so the open and map stores serve any
// legal core count. Storing the already-packed word — rather than a
// struct the compressed store would have to re-encode — keeps the hot
// mutations single word ops; the quotient store compresses the word into
// its 23-bit value field at its boundary (possible exactly when the
// filter is within quotMaxCores, which NewSnoopFilterWithStore gates).
type l1entry uint64

const l1ownerShift = 32 // owner+1 field sits above the full-width mask

func snoopEntry(mask uint32, owner int) l1entry {
	return l1entry(uint64(mask) | uint64(owner+1)<<l1ownerShift)
}

func (e l1entry) mask() uint32 { return uint32(e) }
func (e l1entry) owner() int   { return int(e>>l1ownerShift&0x3F) - 1 }

// packValue/unpackValue are the quotient table's 23-bit value contract
// (see quot.go): a 16-bit mask plus 5-bit owner+1 re-packing, exact for
// the <=quotMaxCores systems the quotient store accepts.
func (e l1entry) packValue() uint64 {
	return uint64(e)&(1<<quotMaxCores-1) | e.ownerField()<<quotMaxCores
}

func (l1entry) unpackValue(w uint64) l1entry {
	return l1entry(w&(1<<quotMaxCores-1) | w>>quotMaxCores&0x1F<<l1ownerShift)
}

// ownerField returns the raw owner+1 bits.
func (e l1entry) ownerField() uint64 { return uint64(e) >> l1ownerShift & 0x3F }

// NewSnoopFilter builds a filter for up to 32 cores on the default line
// table for the core count and the width of the line addresses it tracks
// (quotient-compressed up to 16 cores and 38-bit lines, open full-key
// beyond either).
func NewSnoopFilter(cores int, lineBits uint) *SnoopFilter {
	return NewSnoopFilterWithStore(cores, DefaultStore(cores, lineBits))
}

// NewSnoopFilterWithStore builds a filter on an explicit store
// implementation; the differential test drives both against the Go-map
// reference to prove operation-for-operation equality.
func NewSnoopFilterWithStore(cores int, kind StoreKind) *SnoopFilter {
	if cores <= 0 || cores > 32 {
		panic(fmt.Sprintf("coherence: core count %d outside [1,32]", cores))
	}
	if kind == QuotTable && cores > quotMaxCores {
		panic(fmt.Sprintf("coherence: quotient store packs a %d-core sharer mask; %d cores need OpenTable",
			quotMaxCores, cores))
	}
	return &SnoopFilter{cores: cores, entries: newHotStore[l1entry](kind)}
}

// BytesPerSlot reports the inline footprint of one line-table slot.
func (f *SnoopFilter) BytesPerSlot() int { return f.entries.bytesPerSlot() }

// Reserve sizes an empty filter's line table for n lines in one
// allocation, so filling it never pays incremental growth. A filter
// already tracking lines ignores it.
func (f *SnoopFilter) Reserve(n int) { f.entries.reserve(n) }

func (f *SnoopFilter) check(core int) {
	if core < 0 || core >= f.cores {
		panic(fmt.Sprintf("coherence: core %d outside [0,%d)", core, f.cores))
	}
}

// HoldersMask returns the holder set of the line as a bit mask.
func (f *SnoopFilter) HoldersMask(line mem.LineAddr) uint32 {
	e, ok := f.entries.get(line)
	if !ok {
		return 0
	}
	return e.mask()
}

// DirtyOwner returns the L1 holding the line modified, or -1.
func (f *SnoopFilter) DirtyOwner(line mem.LineAddr) int {
	e, ok := f.entries.get(line)
	if !ok {
		return -1
	}
	return e.owner()
}

// Read records core's L1 fetching the line for reading. If another L1 holds
// it modified, that L1 forwards and downgrades, and the LLC absorbs the
// dirty data: the returned dirtied flag tells the LLC to mark its copy
// modified so the data eventually reaches memory on LLC eviction.
func (f *SnoopFilter) Read(line mem.LineAddr, core int) (forwarder int, dirtied bool) {
	f.check(core)
	forwarder = -1
	if e := f.entries.ref(line); e != nil {
		if ow := e.owner(); ow >= 0 && ow != core {
			forwarder = ow
			dirtied = true
			*e &^= 0x3F << l1ownerShift // owner -> -1
			f.Forwards++
		}
		*e |= 1 << uint(core)
		f.entries.sync()
		return forwarder, dirtied
	}
	f.entries.put(line, snoopEntry(1<<uint(core), -1))
	return forwarder, dirtied
}

// WriteMask records core's L1 fetching the line for writing: every other
// L1 copy is invalidated and core becomes the dirty owner. If a previous
// dirty owner existed it forwards (dirtied tells the LLC to absorb the
// data). The invalidated cores are returned as a mask; the steady-state
// store path allocates nothing (asserted by TestSnoopSteadyStateAllocFree).
func (f *SnoopFilter) WriteMask(line mem.LineAddr, core int) (invalidated uint32, dirtied bool) {
	f.check(core)
	if e := f.entries.ref(line); e != nil {
		if ow := e.owner(); ow >= 0 && ow != core {
			dirtied = true
			f.Forwards++
		}
		invalidated = e.mask() &^ (1 << uint(core))
		f.Invalidations += uint64(bits.OnesCount32(invalidated))
		*e = snoopEntry(1<<uint(core), core)
		f.entries.sync()
		return invalidated, dirtied
	}
	f.entries.put(line, snoopEntry(1<<uint(core), core))
	return invalidated, dirtied
}

// Evict records core's L1 dropping the line. dirty reports whether the
// eviction carries data that the LLC must absorb.
func (f *SnoopFilter) Evict(line mem.LineAddr, core int, dirty bool) {
	f.check(core)
	e := f.entries.ref(line)
	if e == nil || e.mask()&(1<<uint(core)) == 0 {
		// The LLC may have silently dropped tracking (non-inclusive); an
		// unknown eviction is legal and ignored.
		return
	}
	if e.owner() == core {
		*e &^= 0x3F << l1ownerShift // owner -> -1
	}
	*e &^= 1 << uint(core)
	if e.mask() == 0 {
		f.entries.del(line)
	} else {
		f.entries.sync()
	}
	_ = dirty // data movement is the LLC's concern; tracking only here
}

// InvalidateAllMask drops every L1 copy of the line (used when the shared
// LLC evicts a line in an inclusive configuration) and returns the mask of
// cores that lost their copy.
func (f *SnoopFilter) InvalidateAllMask(line mem.LineAddr) uint32 {
	mask := f.HoldersMask(line)
	f.Invalidations += uint64(bits.OnesCount32(mask))
	f.entries.del(line)
	return mask
}

// Entries returns the number of tracked lines.
func (f *SnoopFilter) Entries() int { return f.entries.size() }

// ForEachEntry calls fn for every tracked line with its holder mask (bit c
// set: core c's private caches hold the line) and dirty owner (-1 when
// clean). Iteration order is unspecified; fn must not mutate the filter.
// Hierarchies use it to cross-check tracking against actual cache contents.
func (f *SnoopFilter) ForEachEntry(fn func(line mem.LineAddr, mask uint32, owner int)) {
	f.entries.forEach(func(line mem.LineAddr, e l1entry) {
		fn(line, e.mask(), e.owner())
	})
}

// CheckInvariants validates the representation, returning "" when healthy.
func (f *SnoopFilter) CheckInvariants() string {
	msg := ""
	f.entries.forEach(func(line mem.LineAddr, e l1entry) {
		if msg != "" {
			return
		}
		mask, owner := e.mask(), e.owner()
		if mask == 0 {
			msg = fmt.Sprintf("line %#x: empty entry retained", uint64(line))
			return
		}
		if owner >= 0 {
			if mask&(1<<uint(owner)) == 0 {
				msg = fmt.Sprintf("line %#x: owner %d not in mask", uint64(line), owner)
				return
			}
			if mask != 1<<uint(owner) {
				msg = fmt.Sprintf("line %#x: dirty owner with other sharers", uint64(line))
			}
		}
	})
	return msg
}
