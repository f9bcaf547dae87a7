package cpu

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Snapshot serializes the core's retire/stall counters and asserts the
// core is idle. Checkpoints are cut after functional warm-up, before
// Start: the issue loop's transient state (in-flight requests, pending
// callbacks, buffered op batch) only exists mid-run and cannot be
// serialized, so an active core is recorded as such and rejected on
// Restore rather than silently flattened.
func (c *Core) Snapshot(w *checkpoint.Writer) {
	w.Section("cpu.Core")
	w.I64(int64(c.ID))
	idle := !c.running && !c.haveStalled && !c.waitAny &&
		c.outstanding == 0 && c.waitToken == 0 && c.deferred == 0 &&
		c.opNext == c.opEnd
	w.Bool(idle)
	w.U64(c.tokens)
	w.U64(c.Retired)
	w.U64(c.Consumed)
	w.U64(c.IFetchStall)
	w.U64(c.DataBlocks)
	w.U64(c.Overlapped)
}

// Restore overwrites a freshly constructed (never started) core.
func (c *Core) Restore(r *checkpoint.Reader) error {
	if err := r.Section("cpu.Core"); err != nil {
		return err
	}
	id := int(r.I64())
	idle := r.Bool()
	tokens := r.U64()
	retired := r.U64()
	consumed := r.U64()
	ifetchStall := r.U64()
	dataBlocks := r.U64()
	overlapped := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if id != c.ID {
		return fmt.Errorf("cpu: checkpoint core %d restored into core %d", id, c.ID)
	}
	if !idle {
		return fmt.Errorf("cpu: checkpoint captured core %d mid-run", id)
	}
	if c.running {
		return fmt.Errorf("cpu: restore target core %d already started", c.ID)
	}
	c.tokens = tokens
	c.Retired = retired
	c.Consumed = consumed
	c.IFetchStall = ifetchStall
	c.DataBlocks = dataBlocks
	c.Overlapped = overlapped
	return nil
}
