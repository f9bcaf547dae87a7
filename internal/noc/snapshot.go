package noc

import "repro/internal/checkpoint"

// Checkpoint records the mesh dimensions as shape. The mesh has no
// mutable state (topology and the latency matrix are rebuilt from
// Config on the restore side); the section only lets a decode refuse a
// checkpoint cut from a differently sized mesh.
func (m *Mesh) Checkpoint(c *checkpoint.Codec) {
	c.Section("noc.Mesh")
	checkpoint.Shape(c, "noc.Mesh width", m.Width, checkpoint.Int)
	checkpoint.Shape(c, "noc.Mesh height", m.Height, checkpoint.Int)
}
