package core

// Warm-state checkpointing (DESIGN.md §11): System.Checkpoint encodes a
// warmed, not-yet-started system by walking every layer's Checkpoint
// over a checkpoint.Codec; NewSystemFromCheckpoint rebuilds a system
// from Config (geometry, timing, derived tables) and decodes its mutable
// state with the same walk. Restored state is field-for-field identical
// to the checkpointed system, so the subsequent timed run is
// bit-identical to one that warmed from scratch — proven by differential
// tests for both hierarchy families.

import (
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/vault"
	"repro/internal/workload"
)

// Checkpoint serializes the system's complete warmed state. It must be
// called before Run (the checkpoint cut is after Prewarm +
// WarmFunctional, while the event engine is quiescent and every core is
// idle); a started system is an error.
func (s *System) Checkpoint(w *checkpoint.Writer) error {
	s.checkpoint(checkpoint.NewEncoder(w))
	return w.Err()
}

// NewSystemFromCheckpoint builds a system for (cfg, specs) — exactly as
// NewSystem would — and overwrites its mutable state from the
// checkpoint payload, verifying the trailing checksum before returning.
// Any mismatch (geometry, kind, corruption) is an error; the caller
// falls back to a from-scratch build and discards the partial system.
func NewSystemFromCheckpoint(cfg Config, specs []workload.Spec, r *checkpoint.Reader) (*System, error) {
	return restoreSystem(NewSystem(cfg, specs), r)
}

// NewSystemFromCheckpointSources is NewSystemFromCheckpoint for the
// scenario path: the caller rebuilds the per-core sources exactly as it
// did for the checkpointed system (the checkpoint key covers the
// scenario digest, so equal keys mean equal source construction), and
// the restore overwrites their mutable state through each source's
// Checkpoint walk.
func NewSystemFromCheckpointSources(cfg Config, sources []workload.Source, r *checkpoint.Reader) (*System, error) {
	return restoreSystem(NewSystemFromSources(cfg, sources), r)
}

func restoreSystem(sys *System, r *checkpoint.Reader) (*System, error) {
	sys.checkpoint(checkpoint.NewDecoder(r))
	if err := r.Finish(); err != nil {
		return nil, err
	}
	return sys, nil
}

// checkpoint walks the whole system: its kind and core count as shape,
// then the engine, memory, mesh, sources, cores and hierarchy.
func (s *System) checkpoint(c *checkpoint.Codec) {
	c.Check(!s.started, "core: cannot checkpoint a started system")
	c.Section("core.System")
	checkpoint.Shape(c, "core.System kind", s.cfg.Kind, checkpoint.Uint)
	checkpoint.Shape(c, "core.System cores", s.cfg.Cores, checkpoint.Int)
	s.engine.Checkpoint(c)
	s.mainMem.Checkpoint(c)
	s.mesh.Checkpoint(c)
	checkpointAll(c, "core.System streams", s.sources)
	checkpointAll(c, "core.System cores", s.cores)
	s.hier.checkpoint(c)
}

// checkpointAll walks the component count as shape, then each component.
func checkpointAll[T interface{ Checkpoint(*checkpoint.Codec) }](c *checkpoint.Codec, name string, xs []T) {
	checkpoint.Shape(c, name, len(xs), checkpoint.Int)
	for _, x := range xs {
		x.Checkpoint(c)
	}
}

// checkpointStats walks the Stats counters in declaration order.
func checkpointStats(c *checkpoint.Codec, st *Stats) {
	c.Section("core.Stats")
	for _, p := range []*uint64{
		&st.LLCAccesses, &st.LocalHits, &st.RemoteHits, &st.Misses,
		&st.Reads, &st.WritesPrivate, &st.WritesRWShared,
		&st.MemAccesses, &st.MemWritebacks, &st.VaultAccesses, &st.DRAMCacheHits,
		&st.Invalidations, &st.Forwards, &st.DirAccesses, &st.Upgrades,
	} {
		checkpoint.Uint(c, p)
	}
}

func checkpointArrays(c *checkpoint.Codec, name string, arrs []*cache.Array) {
	c.Section(name)
	checkpointAll(c, name+" arrays", arrs)
}

func checkpointVaults(c *checkpoint.Codec, vaults []*vault.Vault) {
	c.Section("vaults")
	checkpointAll(c, "vaults", vaults)
}

func (h *sharedHierarchy) checkpoint(c *checkpoint.Codec) {
	c.Section("core.sharedHierarchy")
	checkpointStats(c, &h.st)
	checkpointArrays(c, "l1i", h.l1i)
	checkpointArrays(c, "l1d", h.l1d)
	checkpointArrays(c, "l2", h.l2)
	checkpointArrays(c, "banks", h.banks)
	checkpointVaults(c, h.vaults)
	h.snoop.Checkpoint(c)
	checkpoint.Shape(c, "core DRAM-cache presence", h.dramCache != nil, checkpoint.Bool)
	if h.dramCache != nil {
		h.dramCache.Checkpoint(c)
	}
}

func (h *privateHierarchy) checkpoint(c *checkpoint.Codec) {
	c.Section("core.privateHierarchy")
	checkpointStats(c, &h.st)
	checkpointArrays(c, "l1i", h.l1i)
	checkpointArrays(c, "l1d", h.l1d)
	checkpointArrays(c, "l2", h.l2)
	c.Section("vaultTags")
	h.vaultTags.Checkpoint(c) // and with them the directory
	checkpointVaults(c, h.vaults)
}
