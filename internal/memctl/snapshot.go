package memctl

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Snapshot serializes the controller's per-channel busy-until cycles
// and stat counters (all zero at the post-warm-up checkpoint cut, but
// carried for format completeness — see vault.Vault.Snapshot).
func (m *Memory) Snapshot(w *checkpoint.Writer) {
	w.Section("memctl.Memory")
	w.U64(m.Accesses)
	w.U64(m.Writebacks)
	checkpoint.WriteSlab(w, m.chanFree)
}

// Restore overwrites a freshly constructed controller, decoding the
// channel timers in place; a channel count other than the controller's
// is an error.
func (m *Memory) Restore(r *checkpoint.Reader) error {
	if err := r.Section("memctl.Memory"); err != nil {
		return err
	}
	accesses := r.U64()
	writebacks := r.U64()
	checkpoint.ReadSlab(r, m.chanFree)
	if err := r.Err(); err != nil {
		return fmt.Errorf("memctl: %w", err)
	}
	m.Accesses = accesses
	m.Writebacks = writebacks
	return nil
}
