package workload

import (
	"repro/internal/checkpoint"
	"repro/internal/mem"
)

// Source is an op stream as the rest of the simulator consumes one: the
// synthetic generator (Stream), the phased scenario wrapper (Phased),
// and recorded-trace replay (TraceSource) all satisfy it, so cores,
// warm-up and checkpoints bind to the seam instead of the concrete
// generator. The batched-refill determinism contract carries over
// unchanged: NextBatch must be split-invariant — the op sequence (and
// any internal draw sequence) is identical for any partition of the
// same total into batches, one op at a time included — so batch sizes
// can never change what a consumer observes (DESIGN.md §8).
//
// AddrLimit bounds the addresses: a system sizes its cache tags and its
// snoop filter's line keys from the largest limit of its sources
// (core.NewSystemFromSources), so no source may emit an address at or
// above its own (TestSourceAddrLimit).
type Source interface {
	// Spec describes the stream; consumers read structural parameters
	// from it (cpu.Core takes MLP).
	Spec() Spec
	// NextBatch fills dst with the next len(dst) ops, writing both
	// packed words of each, and returns len(dst) (sources never end).
	NextBatch(dst []Op) int
	// Generated reports ops produced so far.
	Generated() uint64
	// Footprint declares the source's cache-resident footprints, in the
	// order a prewarm walk visits them (nil for sources with none to
	// declare, e.g. trace replay). The slice is the caller's.
	Footprint() []Region
	// AddrLimit is an exclusive bound on every instruction and data
	// address the source can emit, in every phase.
	AddrLimit() mem.Addr
	// Checkpoint walks the source's mutable state (DESIGN.md §11); a
	// decode must fail on a checkpoint of another source shape.
	Checkpoint(c *checkpoint.Codec)
}

var _ Source = (*Stream)(nil)

// Region is one cache-resident footprint a prewarm walk visits line by
// line: the Bytes/mem.LineSize addresses Base+off for off = Start,
// Start+mem.LineSize, ... taken modulo Bytes, so a region with a
// non-zero Start (in [0, Bytes)) is visited rotated, wrapping from its
// end back to Base. Instr marks instruction lines.
type Region struct {
	Base         mem.Addr
	Bytes, Start int64
	Instr        bool
}
