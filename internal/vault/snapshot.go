package vault

import "repro/internal/checkpoint"

// Checkpoint walks the vault's timing state (per-bank busy-until cycles,
// decoded in place) and stat counters. At the post-warm-up checkpoint
// cut these are all zero — functional warm-up never schedules timing —
// but the walk carries them anyway so the format does not depend on
// that phase-ordering argument.
func (v *Vault) Checkpoint(c *checkpoint.Codec) {
	c.Section("vault.Vault")
	checkpoint.Uint(c, &v.Accesses)
	checkpoint.Uint(c, &v.Conflicts)
	checkpoint.Uint(c, &v.QueueCycles)
	checkpoint.Slab(c, v.bankFree)
}
