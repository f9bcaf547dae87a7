package cache

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Snapshot serializes the Array's mutable state: packed slot words (the
// 8-byte or the 4-byte layout; the other slab is empty), per-set
// recency counters, way hints, occupancy, and the random-replacement
// xorshift state. Geometry (sets/ways/policy/shift) is written only to
// be validated on Restore — the restoring Array is always freshly
// constructed from the live Config, and its layout follows from it.
func (a *Array) Snapshot(w *checkpoint.Writer) {
	w.Section("cache.Array")
	w.U64(uint64(a.sets))
	w.U64(uint64(a.ways))
	w.U8(uint8(a.policy))
	w.U64(uint64(a.shift))
	w.Bool(a.lru)
	w.U64(a.rndst)
	w.I64(int64(a.occupied))
	checkpoint.WriteSlab(w, a.slots)
	checkpoint.WriteSlab(w, a.dm)
	checkpoint.WriteSlab(w, a.setTick)
	checkpoint.WriteSlab(w, a.hint)
}

// Restore overwrites a freshly constructed Array with snapshotted
// state, decoding the slabs in place. Any geometry mismatch — the
// checkpoint was cut for a different configuration — is an error, never
// a panic; after an error the Array holds a partial decode and must be
// discarded.
func (a *Array) Restore(r *checkpoint.Reader) error {
	if err := r.Section("cache.Array"); err != nil {
		return err
	}
	sets, ways := int(r.U64()), int(r.U64())
	policy := Policy(r.U8())
	shift := uint(r.U64())
	lru := r.Bool()
	rndst := r.U64()
	occupied := int(r.I64())
	if err := r.Err(); err != nil {
		return err
	}
	if sets != a.sets || ways != a.ways || policy != a.policy || shift != a.shift || lru != a.lru {
		return fmt.Errorf("cache: checkpoint geometry %d sets x %d ways policy %d shift %d lru %v, array has %d x %d policy %d shift %d lru %v",
			sets, ways, policy, shift, lru, a.sets, a.ways, a.policy, a.shift, a.lru)
	}
	if occupied < 0 || occupied > sets*ways {
		return fmt.Errorf("cache: checkpoint occupancy %d outside [0,%d]", occupied, sets*ways)
	}
	checkpoint.ReadSlab(r, a.slots)
	checkpoint.ReadSlab(r, a.dm)
	checkpoint.ReadSlab(r, a.setTick)
	checkpoint.ReadSlab(r, a.hint)
	if err := r.Err(); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	a.occupied = occupied
	a.rndst = rndst
	return nil
}
