// Package coherence implements the two coherence substrates of the
// evaluated systems:
//
//   - Directory: the directory-based protocol that keeps SILO's all-private
//     vault LLCs coherent (paper Sec. V-B). It models the duplicate-tag
//     organization — logically an N-way tag store where the way position
//     encodes the caching core — as per-line compact state. MOESI is the
//     paper's protocol; MESI is selectable for the ablation study.
//   - SnoopFilter: the sharer tracking a shared last-level cache performs
//     for the private L1s above it (baseline MESI, non-inclusive, paper
//     Table II).
//
// Both types are purely functional state machines: they decide who
// forwards, who is invalidated, and what is written back, while the system
// assembly (internal/core) attaches latencies to those decisions. This
// separation lets the protocol be tested exhaustively without a clock.
package coherence

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/mem"
)

// Protocol selects the private-LLC coherence protocol.
type Protocol uint8

const (
	// MOESI is the paper's protocol: the Owned state lets a dirty block be
	// supplied to readers without writing it back to memory (Sec. V-B).
	MOESI Protocol = iota
	// MESI is the ablation alternative: a dirty block read by another core
	// must be written back to memory (the point of coherence) on downgrade.
	MESI
)

func (p Protocol) String() string {
	if p == MESI {
		return "MESI"
	}
	return "MOESI"
}

// MemorySource marks data supplied by main memory rather than a peer cache.
const MemorySource = -1

// entry is the packed per-line directory state: bits 0-31 the sharer mask
// (bit c: core c holds the line), bits 32-37 the owner + 1 (0 = no
// owner), bits 38-39 the owner's state code (E/O/M) — full 32-core
// width, so the open and map stores serve any legal core count. At most
// one core holds the line in a non-Shared state (the owner); every other
// holder is Shared. Storing the packed word keeps the hot mutations
// single word ops; the quotient store re-packs the word into its 23-bit
// value field at its boundary (exact within quotMaxCores, which
// NewDirectoryWithStore gates).
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

// Directory is the coherence directory for a private-LLC system with up to
// 32 cores.
type Directory struct {
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

// NewDirectory builds a directory for the given core count and protocol on
// the default line table for the core count (quotient-compressed up to 16
// cores, open full-key beyond).
func NewDirectory(cores int, protocol Protocol) *Directory {
	return NewDirectoryWithStore(cores, protocol, DefaultStore(cores))
}

// NewDirectoryWithStore builds a directory on an explicit store
// implementation; the differential test drives both against the Go-map
// reference to prove operation-for-operation equality.
func NewDirectoryWithStore(cores int, protocol Protocol, kind StoreKind) *Directory {
	if cores <= 0 || cores > 32 {
		panic(fmt.Sprintf("coherence: core count %d outside [1,32]", cores))
	}
	if kind == QuotTable && cores > quotMaxCores {
		panic(fmt.Sprintf("coherence: quotient store packs a %d-core sharer mask; %d cores need OpenTable",
			quotMaxCores, cores))
	}
	return &Directory{protocol: protocol, cores: cores, entries: newHotStore[entry](kind)}
}

// BytesPerSlot reports the inline footprint of one line-table slot.
func (d *Directory) BytesPerSlot() int { return d.entries.bytesPerSlot() }

// Reserve sizes an empty directory's line table for n lines in one
// allocation, so filling it never pays incremental growth. A directory
// already tracking lines ignores it.
func (d *Directory) Reserve(n int) { d.entries.reserve(n) }

// Protocol returns the configured protocol.
func (d *Directory) Protocol() Protocol { return d.protocol }

// Entries returns the number of tracked lines.
func (d *Directory) Entries() int { return d.entries.size() }

func (d *Directory) check(core int) {
	if core < 0 || core >= d.cores {
		panic(fmt.Sprintf("coherence: core %d outside [0,%d)", core, d.cores))
	}
}

// StateOf reports the coherence state of the line in core's private LLC.
func (d *Directory) StateOf(line mem.LineAddr, core int) cache.State {
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

// SharersMask returns the holder set of the line as a bit mask.
func (d *Directory) SharersMask(line mem.LineAddr) uint32 {
	e, ok := d.entries.get(line)
	if !ok {
		return 0
	}
	return e.mask()
}

// ReadOutcome describes how a read miss is satisfied.
type ReadOutcome struct {
	// Source is the forwarding core, or MemorySource when the data comes
	// from main memory.
	Source int
	// FillState is the state the requester installs (E on a miss with no
	// sharers, else S).
	FillState cache.State
	// MemWriteback is set when the protocol forces the dirty line to be
	// written back to memory on the downgrade (MESI only).
	MemWriteback bool
}

// Read records a read miss by requester and returns how it is satisfied.
// The requester must not already hold the line.
func (d *Directory) Read(line mem.LineAddr, requester int) ReadOutcome {
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

// WriteMaskOutcome describes how a write miss or upgrade is satisfied,
// with the invalidated cores as an allocation-free bit mask.
type WriteMaskOutcome struct {
	// Source is the forwarding core, MemorySource for a memory fetch, or
	// the requester itself for an upgrade (no data transfer).
	Source int
	// InvalidatedMask holds the other cores whose copies were invalidated
	// (bit c: core c); iterate with bits.TrailingZeros32.
	InvalidatedMask uint32
	// Upgrade is set when the requester already held the line.
	Upgrade bool
}

// WriteMask records a write miss (or upgrade) by requester; afterwards the
// requester holds the line in Modified and nobody else holds it. This is
// the fast path: the steady-state store flow allocates nothing.
func (d *Directory) WriteMask(line mem.LineAddr, requester int) WriteMaskOutcome {
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
func (d *Directory) Evict(line mem.LineAddr, core int) EvictOutcome {
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
func (d *Directory) MarkDirty(line mem.LineAddr, core int) {
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
func (d *Directory) CheckInvariants() string {
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

// firstSet returns the lowest-numbered core in a non-empty sharer mask.
func firstSet(mask uint32) int {
	if mask == 0 {
		panic("coherence: firstSet on empty mask")
	}
	return bits.TrailingZeros32(mask)
}
