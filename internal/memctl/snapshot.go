package memctl

import "repro/internal/checkpoint"

// Checkpoint walks the controller's stat counters and per-channel
// busy-until cycles, decoded in place (all zero at the post-warm-up
// checkpoint cut, but carried for format completeness — see
// vault.Vault.Checkpoint).
func (m *Memory) Checkpoint(c *checkpoint.Codec) {
	c.Section("memctl.Memory")
	checkpoint.Uint(c, &m.Accesses)
	checkpoint.Uint(c, &m.Writebacks)
	checkpoint.Slab(c, m.chanFree)
}
