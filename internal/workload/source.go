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
// same total into batches, and identical to per-op Next — so batch
// sizes can never change what a consumer observes (DESIGN.md §8).
type Source interface {
	// Spec describes the stream; consumers read structural parameters
	// from it (cpu.Core takes MLP).
	Spec() Spec
	// Next fills op with the next instruction; both packed words are
	// written on every call.
	Next(op *Op)
	// NextBatch fills dst and returns len(dst) (sources never end).
	NextBatch(dst []Op) int
	// Generated reports ops produced so far (Next + NextBatch).
	Generated() uint64
	// Prewarm visits every line of the source's cache-resident
	// footprints once (may be a no-op for sources with none to declare,
	// e.g. trace replay).
	Prewarm(visit func(addr mem.Addr, instr bool))
	// Snapshot/Restore serialize the source's mutable state through the
	// checkpoint seams (DESIGN.md §11). Restore must verify it is fed a
	// snapshot of the same source shape.
	Snapshot(w *checkpoint.Writer)
	Restore(r *checkpoint.Reader) error
}

var _ Source = (*Stream)(nil)
