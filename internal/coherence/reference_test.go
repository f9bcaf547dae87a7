package coherence

import (
	"math/bits"

	"repro/internal/mem"
)

// The slice-returning reference forms of the mask queries, and the
// directory's holder queries. The simulator calls only the mask forms and
// reads holders inside its transactions; the tests state the protocol in
// these readable ones.

// SharersMask returns the holder set of the line as a bit mask.
func (d *Directory) SharersMask(line mem.LineAddr) uint32 {
	mask, _, _ := d.holders(line)
	return mask
}

// Sharers returns the cores holding the line, in ascending order.
func (d *Directory) Sharers(line mem.LineAddr) []int {
	return maskToSlice(d.SharersMask(line))
}

// Owner returns the core holding the line in E, M or O, or -1.
func (d *Directory) Owner(line mem.LineAddr) int {
	_, owner, _ := d.holders(line)
	return owner
}

// WriteOutcome describes how a write miss or upgrade is satisfied.
type WriteOutcome struct {
	// Source is the forwarding core, MemorySource for a memory fetch, or
	// the requester itself for an upgrade (no data transfer).
	Source int
	// Invalidated lists the other cores whose copies were invalidated.
	Invalidated []int
	// Upgrade is set when the requester already held the line.
	Upgrade bool
}

// Write is the slice-returning reference form of WriteMask.
func (v *vaultDir) Write(line mem.LineAddr, requester int) WriteOutcome {
	out := v.WriteMask(line, requester)
	return WriteOutcome{
		Source:      out.Source,
		Invalidated: maskToSlice(out.InvalidatedMask),
		Upgrade:     out.Upgrade,
	}
}

// Holders returns the cores whose L1s hold the line.
func (f *SnoopFilter) Holders(line mem.LineAddr) []int {
	return maskToSlice(f.HoldersMask(line))
}

// Write is the slice-returning reference form of WriteMask.
func (f *SnoopFilter) Write(line mem.LineAddr, core int) (invalidated []int, dirtied bool) {
	mask, dirtied := f.WriteMask(line, core)
	return maskToSlice(mask), dirtied
}

// InvalidateAll is the slice-returning reference form of InvalidateAllMask.
func (f *SnoopFilter) InvalidateAll(line mem.LineAddr) []int {
	return maskToSlice(f.InvalidateAllMask(line))
}

// maskToSlice expands a sharer mask to an ascending core slice (nil when
// empty), matching the historical slice-API ordering.
func maskToSlice(mask uint32) []int {
	if mask == 0 {
		return nil
	}
	out := make([]int, 0, bits.OnesCount32(mask))
	for m := mask; m != 0; m &= m - 1 {
		out = append(out, bits.TrailingZeros32(m))
	}
	return out
}
