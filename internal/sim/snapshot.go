package sim

import "repro/internal/checkpoint"

// Checkpoint walks the engine clock and event counters. Checkpoints are
// cut between simulation phases, when no events are pending — a
// calendar queue full of scheduled closures cannot be serialized — so
// the walk fails on a busy engine in either direction, and the recorded
// quiescent flag is shape.
func (e *Engine) Checkpoint(c *checkpoint.Codec) {
	c.Section("sim.Engine")
	quiescent := e.Pending() == 0
	c.Check(quiescent, "sim: engine has %d pending events", e.Pending())
	checkpoint.Shape(c, "sim.Engine quiescent", quiescent, checkpoint.Bool)
	checkpoint.Uint(c, &e.now)
	checkpoint.Uint(c, &e.seq)
	checkpoint.Uint(c, &e.nEvts)
}

// Checkpoint walks the generator state.
func (r *RNG) Checkpoint(c *checkpoint.Codec) { checkpoint.Uint(c, &r.state) }
