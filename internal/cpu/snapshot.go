package cpu

import "repro/internal/checkpoint"

// Checkpoint walks the core's retire/stall counters. Checkpoints are cut
// after functional warm-up, before Start: the issue loop's transient
// state (in-flight requests, pending callbacks, buffered op batch) only
// exists mid-run and cannot be serialized, so the walk fails on an
// active core in either direction. The core id and the recorded idle
// flag are shape.
func (c *Core) Checkpoint(cc *checkpoint.Codec) {
	cc.Section("cpu.Core")
	checkpoint.Shape(cc, "cpu.Core id", c.ID, checkpoint.Int)
	idle := !c.running && !c.haveStalled && !c.waitAny &&
		c.outstanding == 0 && c.waitToken == 0 && c.deferred == 0 &&
		c.opNext == c.opEnd
	cc.Check(idle, "cpu: core %d is mid-run", c.ID)
	checkpoint.Shape(cc, "cpu.Core idle", idle, checkpoint.Bool)
	checkpoint.Uint(cc, &c.tokens)
	checkpoint.Uint(cc, &c.Retired)
	checkpoint.Uint(cc, &c.Consumed)
	checkpoint.Uint(cc, &c.IFetchStall)
	checkpoint.Uint(cc, &c.DataBlocks)
	checkpoint.Uint(cc, &c.Overlapped)
}
