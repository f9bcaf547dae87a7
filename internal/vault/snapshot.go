package vault

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// Snapshot serializes the vault's timing state (per-bank busy-until
// cycles) and stat counters. At the post-warm-up checkpoint cut these
// are all zero — functional warm-up never schedules timing — but the
// seam carries them anyway so the format does not depend on that
// phase-ordering argument.
func (v *Vault) Snapshot(w *checkpoint.Writer) {
	w.Section("vault.Vault")
	w.U64(v.Accesses)
	w.U64(v.Conflicts)
	w.U64(uint64(v.QueueCycles))
	checkpoint.WriteSlab(w, v.bankFree)
}

// Restore overwrites a freshly constructed vault, decoding the bank
// timers in place; a bank count other than the vault's is an error.
func (v *Vault) Restore(r *checkpoint.Reader) error {
	if err := r.Section("vault.Vault"); err != nil {
		return err
	}
	accesses := r.U64()
	conflicts := r.U64()
	queueCycles := sim.Cycle(r.U64())
	checkpoint.ReadSlab(r, v.bankFree)
	if err := r.Err(); err != nil {
		return fmt.Errorf("vault: %w", err)
	}
	v.Accesses = accesses
	v.Conflicts = conflicts
	v.QueueCycles = queueCycles
	return nil
}
