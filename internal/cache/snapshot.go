package cache

import "repro/internal/checkpoint"

// Checkpoint walks the Array's mutable state: the random-replacement
// xorshift state, occupancy, packed slot words (the 8-byte or the 4-byte
// layout; the other slab is empty), per-set recency counters and way
// hints, all decoded in place. Geometry (sets/ways/policy/shift/lru) is
// shape: the receiver is always freshly constructed from the live
// Config, its layout follows from it, and a checkpoint cut for another
// geometry fails the walk.
func (a *Array) Checkpoint(c *checkpoint.Codec) {
	c.Section("cache.Array")
	checkpoint.Shape(c, "cache.Array sets", a.sets, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array ways", a.ways, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array policy", a.policy, checkpoint.Uint)
	checkpoint.Shape(c, "cache.Array shift", a.shift, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array lru", a.lru, checkpoint.Bool)
	checkpoint.Uint(c, &a.rndst)
	checkpoint.Int(c, &a.occupied)
	c.Check(a.occupied >= 0 && a.occupied <= a.sets*a.ways,
		"cache: checkpoint occupancy %d outside [0,%d]", a.occupied, a.sets*a.ways)
	checkpoint.Slab(c, a.slots)
	checkpoint.Slab(c, a.dm)
	checkpoint.Slab(c, a.setTick)
	checkpoint.Slab(c, a.hint)
}
