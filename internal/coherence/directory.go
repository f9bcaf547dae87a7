// Package coherence implements the two coherence substrates of the
// evaluated systems:
//
//   - Directory: the directory protocol that keeps SILO's all-private
//     vault LLCs coherent (paper Sec. V-B). The paper embeds a
//     duplicate-tag directory in the vaults, and duplicate tags are
//     copies of the vault tags, so the Directory is a view over the
//     per-core vault arrays themselves: each vault slot's state field
//     carries its core's MOESI state, and the vaults share one set-major
//     slab, so a line's holders are one scan of its row. MOESI is the
//     paper's protocol; MESI is selectable for the ablation study.
//   - SnoopFilter: the sharer tracking a shared last-level cache performs
//     for the private L1s above it (baseline MESI, non-inclusive, paper
//     Table II), kept in a per-line table (table.go, quot.go).
//
// Both are purely functional: they decide who forwards, who is
// invalidated, and what is written back, while the system assembly
// (internal/core) attaches latencies to those decisions. This separation
// lets the protocol be tested exhaustively without a clock.
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

// Directory is the coherence directory of a private-LLC system with up to
// 32 cores: a view over the cores' vault arrays, one cache.Group whose
// set-major slab puts a line's slots in every vault side by side. The
// slot of a vault-resident line holds its core's state: E, O or M for the
// line's one owner, S for every other holder. The directory writes owner
// downgrades and upgrades into those slots; the caller installs the fill
// state a Read returns (Modified after a WriteMask miss), invalidates the
// peers a WriteMask names, and evicts with the victim slot's own state —
// cache.Eviction.State says whether the victim was a dirty owner.
type Directory struct {
	protocol Protocol
	group    *cache.Group
	vaults   []*cache.Array // group.Arrays(): vault c is core c's
}

// NewDirectory builds the directory over vaults, one member per core.
func NewDirectory(vaults *cache.Group, protocol Protocol) *Directory {
	return &Directory{protocol: protocol, group: vaults, vaults: vaults.Arrays()}
}

func (d *Directory) check(core int) {
	if core < 0 || core >= len(d.vaults) {
		panic(fmt.Sprintf("coherence: core %d outside [0,%d)", core, len(d.vaults)))
	}
}

// holders scans the line's row of the vault group once: the mask of
// cores holding the line (bit c: core c), and the owner — the holder in
// E, O or M — with its way, or owner -1.
func (d *Directory) holders(line mem.LineAddr) (mask uint32, owner int, ow cache.Way) {
	owner = -1
	var st [cache.MaxGroup]cache.State
	k := d.group.KeyOf(line)
	mask = d.group.Row(k, &st)
	for m := mask; m != 0; m &= m - 1 {
		if c := bits.TrailingZeros32(m); st[c] != cache.Shared {
			owner = c
		}
	}
	if owner >= 0 {
		ow = d.vaults[owner].ProbeKey(k)
	}
	return mask, owner, ow
}

// StateOf reports the coherence state of the line in core's private LLC.
func (d *Directory) StateOf(line mem.LineAddr, core int) cache.State {
	d.check(core)
	v := d.vaults[core]
	if w := v.Probe(line); w != cache.NoWay {
		return v.WayState(w)
	}
	return cache.Invalid
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

// Read records a read miss by requester and returns how it is satisfied;
// the caller then installs the line in FillState. The requester must not
// already hold the line.
func (d *Directory) Read(line mem.LineAddr, requester int) ReadOutcome {
	d.check(requester)
	mask, owner, ow := d.holders(line)
	if mask&(1<<uint(requester)) != 0 {
		panic(fmt.Sprintf("coherence: core %d read-missed line %#x it already holds", requester, uint64(line)))
	}
	if mask == 0 {
		// No cached copy anywhere: fill Exclusive from memory.
		return ReadOutcome{Source: MemorySource, FillState: cache.Exclusive}
	}
	out := ReadOutcome{FillState: cache.Shared}
	if owner < 0 {
		// All copies Shared: the nearest sharer forwards. Source selection
		// (which sharer) is a timing decision; report the lowest-numbered
		// one.
		out.Source = firstSet(mask)
		return out
	}
	out.Source = owner
	v := d.vaults[owner]
	switch st := v.WayState(ow); st {
	case cache.Modified:
		if d.protocol == MOESI {
			// M -> O: dirty data forwarded, memory untouched.
			v.SetStateWay(ow, cache.Owned)
		} else {
			// MESI: M -> S with a writeback to memory.
			v.SetStateWay(ow, cache.Shared)
			out.MemWriteback = true
		}
	case cache.Owned:
		// Owner keeps O and keeps answering.
	case cache.Exclusive:
		// Clean forward; E degenerates to S.
		v.SetStateWay(ow, cache.Shared)
	default:
		panic(fmt.Sprintf("coherence: owner in state %v", st))
	}
	return out
}

// WriteMaskOutcome describes how a write miss or upgrade is satisfied,
// with the invalidated cores as an allocation-free bit mask.
type WriteMaskOutcome struct {
	// Source is the forwarding core, MemorySource for a memory fetch, or
	// the requester itself for an upgrade (no data transfer).
	Source int
	// InvalidatedMask holds the other cores whose copies must be
	// invalidated (bit c: core c); iterate with bits.TrailingZeros32.
	InvalidatedMask uint32
	// Upgrade is set when the requester already held the line.
	Upgrade bool
}

// WriteMask records a write miss (or upgrade) by requester. An upgrade
// leaves the requester's slot Modified; after a miss the caller installs
// the line Modified. Either way the caller then invalidates every core in
// InvalidatedMask, leaving the requester the only holder. The steady-state
// store flow allocates nothing.
func (d *Directory) WriteMask(line mem.LineAddr, requester int) WriteMaskOutcome {
	d.check(requester)
	bit := uint32(1) << uint(requester)
	mask, owner, _ := d.holders(line)
	out := WriteMaskOutcome{Source: MemorySource, InvalidatedMask: mask &^ bit}
	switch {
	case mask&bit != 0:
		out.Upgrade = true
		out.Source = requester
		v := d.vaults[requester]
		v.SetStateWay(v.Probe(line), cache.Modified)
	case owner >= 0:
		// Dirty or exclusive peer copy: it forwards then invalidates.
		out.Source = owner
	case mask != 0:
		// Clean shared copies: one forwards, all invalidate.
		out.Source = firstSet(mask)
	}
	return out
}

// MarkDirty records that core's copy became dirty without a directory
// transaction — an L1 writeback landing in a vault that already holds the
// line in E or M (silent E->M upgrade); an O or M copy stays as it is.
// Writes to Shared copies must go through WriteMask.
func (d *Directory) MarkDirty(line mem.LineAddr, core int) {
	d.check(core)
	v := d.vaults[core]
	w := v.Probe(line)
	st := cache.Invalid
	if w != cache.NoWay {
		st = v.WayState(w)
	}
	switch st {
	case cache.Exclusive:
		v.SetStateWay(w, cache.Modified)
	case cache.Owned, cache.Modified:
	default:
		panic(fmt.Sprintf("coherence: MarkDirty by non-owner core %d on line %#x", core, uint64(line)))
	}
}

// CheckInvariants validates the states the vaults hold in one pass over
// the group's rows, returning an error description or "": every slot
// holds S, E, O or M; a line has at most one owner; an E or M owner holds
// it alone; and MESI never holds O. Only owners are cross-checked, each
// against the other slots of its row.
func (d *Directory) CheckInvariants() string {
	msg := ""
	d.group.ForEachRow(func(row []cache.Slot) bool {
		for _, h := range row {
			switch h.State {
			case cache.Shared:
				continue
			case cache.Exclusive, cache.Modified:
			case cache.Owned:
				if d.protocol == MESI {
					msg = fmt.Sprintf("core %d vault holds line %#x in O under MESI", h.Member, uint64(h.Line))
					return false
				}
			default:
				msg = fmt.Sprintf("core %d vault holds line %#x in state %v", h.Member, uint64(h.Line), h.State)
				return false
			}
			for _, p := range row {
				if p.Member == h.Member || p.Line != h.Line {
					continue
				}
				if p.State != cache.Shared {
					msg = fmt.Sprintf("line %#x: two owners, core %d in %v and core %d in %v",
						uint64(h.Line), h.Member, h.State, p.Member, p.State)
				} else if h.State != cache.Owned {
					msg = fmt.Sprintf("line %#x: %v owner %d with sharer %d", uint64(h.Line), h.State, h.Member, p.Member)
				}
				if msg != "" {
					return false
				}
			}
		}
		return true
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
