package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
)

// entry is the packed per-line directory state: bits 0-31 the sharer mask
// (bit c: core c holds the line), bits 32-37 the owner + 1 (0 = no
// owner), bits 38-39 the owner's state code (E/O/M) — full 32-core
// width, so the open and map stores serve any legal core count. At most
// one core holds the line in a non-Shared state (the owner); every other
// holder is Shared. Storing the packed word keeps the hot mutations
// single word ops; the quotient store re-packs the word into its 23-bit
// value field at its boundary (exact within quotMaxCores, which
// newLineDirectory gates).
type entry uint64

const (
	dirOwnerShift = 32                    // owner+1 field
	dirStateShift = 38                    // owner-state code field
	dirOwnerClear = 0xFF << dirOwnerShift // clears owner and state together
)

// dirStateOf decodes a state code; dirCodeOf encodes one. Only E, O and M
// are representable — exactly the states an owner may hold.
var dirStateOf = [4]cache.State{cache.Invalid, cache.Exclusive, cache.Owned, cache.Modified}

func dirCodeOf(st cache.State) uint64 {
	switch st {
	case cache.Exclusive:
		return 1
	case cache.Owned:
		return 2
	case cache.Modified:
		return 3
	default:
		return 0
	}
}

func dirEntry(mask uint32, owner int, ownerState cache.State) entry {
	w := uint64(mask) | uint64(owner+1)<<dirOwnerShift
	if owner >= 0 {
		w |= dirCodeOf(ownerState) << dirStateShift
	}
	return entry(w)
}

func (e entry) mask() uint32            { return uint32(e) }
func (e entry) owner() int              { return int(e>>dirOwnerShift&0x3F) - 1 }
func (e entry) ownerState() cache.State { return dirStateOf[e>>dirStateShift&3] }

// setOwnerState swaps the state code, leaving mask and owner in place.
func (e *entry) setOwnerState(st cache.State) {
	*e = *e&^(3<<dirStateShift) | entry(dirCodeOf(st))<<dirStateShift
}

// clearOwner drops the owner and its state code (owner -> -1).
func (e *entry) clearOwner() { *e &^= dirOwnerClear }

// packValue/unpackValue are the quotient table's 23-bit value contract
// (see quot.go): a 16-bit mask, 5-bit owner+1, 2-bit state re-packing,
// exact for the <=quotMaxCores systems the quotient store accepts.
func (e entry) packValue() uint64 {
	return uint64(e)&(1<<quotMaxCores-1) |
		uint64(e)>>dirOwnerShift&0x3F<<quotMaxCores |
		uint64(e)>>dirStateShift&3<<(quotMaxCores+5)
}

func (entry) unpackValue(w uint64) entry {
	return entry(w&(1<<quotMaxCores-1) |
		w>>quotMaxCores&0x1F<<dirOwnerShift |
		w>>(quotMaxCores+5)&3<<dirStateShift)
}

// lineDirectory is the line-table directory the vault view replaced: per-line
// sharer mask, owner and owner state in a lineStore, with its own stats.
// It is the test oracle TestDirectoryViewDifferential drives the view
// against.
type lineDirectory struct {
	protocol Protocol
	cores    int
	entries  hotStore[entry]

	// Stats.
	Reads         uint64
	Writes        uint64
	Upgrades      uint64
	Forwards      uint64 // cache-to-cache transfers
	Invalidations uint64 // per-core invalidation messages
	MemWritebacks uint64 // protocol-induced writebacks (MESI downgrades, O/M evictions)
}

// newLineDirectory builds the oracle on the given store. The quotient
// store packs a quotMaxCores-bit sharer mask, so it serves at most that
// many cores.
func newLineDirectory(cores int, protocol Protocol, kind StoreKind) *lineDirectory {
	if cores <= 0 || cores > 32 {
		panic(fmt.Sprintf("coherence: core count %d outside [1,32]", cores))
	}
	if kind == QuotTable && cores > quotMaxCores {
		panic(fmt.Sprintf("coherence: quotient store packs a %d-core sharer mask; %d cores need OpenTable",
			quotMaxCores, cores))
	}
	return &lineDirectory{protocol: protocol, cores: cores, entries: newHotStore[entry](kind)}
}

// BytesPerSlot reports the inline footprint of one line-table slot.
func (d *lineDirectory) BytesPerSlot() int { return d.entries.bytesPerSlot() }

// Entries returns the number of tracked lines.
func (d *lineDirectory) Entries() int { return d.entries.size() }

func (d *lineDirectory) check(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("coherence: core %d outside [0,%d)", core, d.cores))
	}
}

// StateOf reports the coherence state of the line in core's private LLC.
func (d *lineDirectory) StateOf(line mem.LineAddr, core int) cache.State {
	d.check(core)
	e, ok := d.entries.get(line)
	if !ok || e.mask()&(1<<uint(core)) == 0 {
		return cache.Invalid
	}
	if e.owner() == core {
		return e.ownerState()
	}
	return cache.Shared
}

// Owner returns the core holding the line in E, M or O, or -1.
func (d *lineDirectory) Owner(line mem.LineAddr) int {
	e, ok := d.entries.get(line)
	if !ok {
		return -1
	}
	return e.owner()
}

// SharersMask returns the holder set of the line as a bit mask.
func (d *lineDirectory) SharersMask(line mem.LineAddr) uint32 {
	e, ok := d.entries.get(line)
	if !ok {
		return 0
	}
	return e.mask()
}

// Read records a read miss by requester and returns how it is satisfied.
// The requester must not already hold the line.
func (d *lineDirectory) Read(line mem.LineAddr, requester int) ReadOutcome {
	d.check(requester)
	d.Reads++
	bit := uint32(1) << uint(requester)
	e := d.entries.ref(line)
	if e != nil && e.mask()&bit != 0 {
		panic(fmt.Sprintf("coherence: core %d read-missed line %#x it already holds", requester, uint64(line)))
	}
	if e == nil {
		// No cached copy anywhere: fill Exclusive from memory.
		d.entries.put(line, dirEntry(bit, requester, cache.Exclusive))
		return ReadOutcome{Source: MemorySource, FillState: cache.Exclusive}
	}

	out := ReadOutcome{FillState: cache.Shared}
	if ow := e.owner(); ow >= 0 {
		out.Source = ow
		d.Forwards++
		switch e.ownerState() {
		case cache.Modified:
			if d.protocol == MOESI {
				// M -> O: dirty data forwarded, memory untouched.
				e.setOwnerState(cache.Owned)
			} else {
				// MESI: M -> S with a writeback to memory.
				e.clearOwner()
				out.MemWriteback = true
				d.MemWritebacks++
			}
		case cache.Owned:
			// Owner keeps O and keeps answering.
		case cache.Exclusive:
			// Clean forward; E degenerates to S.
			e.clearOwner()
		default:
			panic(fmt.Sprintf("coherence: owner in state %v", e.ownerState()))
		}
	} else {
		// All copies Shared: the nearest sharer forwards. Source selection
		// (which sharer) is a timing decision; report the lowest-numbered
		// one and let the caller pick by distance via SharersMask.
		out.Source = firstSet(e.mask())
		d.Forwards++
	}
	*e |= entry(bit)
	d.entries.sync()
	return out
}

// WriteMask records a write miss (or upgrade) by requester; afterwards the
// requester holds the line in Modified and nobody else holds it. This is
// the fast path: the steady-state store flow allocates nothing.
func (d *lineDirectory) WriteMask(line mem.LineAddr, requester int) WriteMaskOutcome {
	d.check(requester)
	d.Writes++
	bit := uint32(1) << uint(requester)
	e := d.entries.ref(line)
	out := WriteMaskOutcome{Source: MemorySource}
	if e != nil {
		mask := e.mask()
		if mask&bit != 0 {
			out.Upgrade = true
			out.Source = requester
			d.Upgrades++
		} else if ow := e.owner(); ow >= 0 {
			// Dirty or exclusive peer copy: it forwards then invalidates.
			out.Source = ow
			d.Forwards++
		} else if mask != 0 {
			// Clean shared copies: one forwards, all invalidate.
			out.Source = firstSet(mask)
			d.Forwards++
		}
		out.InvalidatedMask = mask &^ bit
		d.Invalidations += uint64(bits.OnesCount32(out.InvalidatedMask))
		*e = dirEntry(bit, requester, cache.Modified)
		d.entries.sync()
		return out
	}
	d.entries.put(line, dirEntry(bit, requester, cache.Modified))
	return out
}

// EvictOutcome describes a private-LLC eviction.
type EvictOutcome struct {
	// MemWriteback is set when the evicted line was dirty (M or O) and must
	// be written to memory.
	MemWriteback bool
}

// Evict records that core's private LLC dropped the line (capacity or
// conflict eviction). Shared copies at other cores survive.
func (d *lineDirectory) Evict(line mem.LineAddr, core int) EvictOutcome {
	d.check(core)
	bit := uint32(1) << uint(core)
	e := d.entries.ref(line)
	if e == nil || e.mask()&bit == 0 {
		panic(fmt.Sprintf("coherence: core %d evicted line %#x it does not hold", core, uint64(line)))
	}
	var out EvictOutcome
	if e.owner() == core {
		if e.ownerState().Dirty() {
			out.MemWriteback = true
			d.MemWritebacks++
		}
		e.clearOwner()
	}
	*e &^= entry(bit)
	if e.mask() == 0 {
		d.entries.del(line)
	} else {
		d.entries.sync()
	}
	return out
}

// MarkDirty records that core's copy became dirty without a directory
// transaction — an L1 writeback landing in a vault that already holds the
// line in E or M (silent E->M upgrade). The core must be the owner in E/M;
// writes to Shared copies must go through WriteMask.
func (d *lineDirectory) MarkDirty(line mem.LineAddr, core int) {
	d.check(core)
	e := d.entries.ref(line)
	if e == nil || e.owner() != core {
		panic(fmt.Sprintf("coherence: MarkDirty by non-owner core %d on line %#x", core, uint64(line)))
	}
	if e.ownerState() == cache.Exclusive {
		e.setOwnerState(cache.Modified)
		d.entries.sync()
	}
}

// CheckInvariants validates the representation; tests call it after
// randomized operation sequences. It returns an error description or "".
func (d *lineDirectory) CheckInvariants() string {
	msg := ""
	d.entries.forEach(func(line mem.LineAddr, e entry) {
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
			switch st := e.ownerState(); st {
			case cache.Exclusive, cache.Modified:
				if mask != 1<<uint(owner) {
					msg = fmt.Sprintf("line %#x: %v owner with other sharers", uint64(line), st)
				}
			case cache.Owned:
				if d.protocol == MESI {
					msg = fmt.Sprintf("line %#x: O state under MESI", uint64(line))
				}
			default:
				msg = fmt.Sprintf("line %#x: bad owner state %v", uint64(line), st)
			}
		}
	})
	return msg
}
