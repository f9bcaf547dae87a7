package noc

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Snapshot records the mesh dimensions. The mesh has no mutable state
// (topology and the latency matrix are rebuilt from Config on the
// restore side); the section only lets Restore refuse a checkpoint cut
// from a differently sized mesh.
func (m *Mesh) Snapshot(w *checkpoint.Writer) {
	w.Section("noc.Mesh")
	w.I64(int64(m.Width))
	w.I64(int64(m.Height))
}

// Restore checks that the checkpoint was cut from a mesh of this size.
func (m *Mesh) Restore(r *checkpoint.Reader) error {
	if err := r.Section("noc.Mesh"); err != nil {
		return err
	}
	width, height := int(r.I64()), int(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if width != m.Width || height != m.Height {
		return fmt.Errorf("noc: checkpoint mesh %dx%d, mesh is %dx%d", width, height, m.Width, m.Height)
	}
	return nil
}
