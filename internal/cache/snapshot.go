package cache

import "repro/internal/checkpoint"

// Checkpoint walks a lone Array: its own state (checkpointState), then
// its slab. A Group member's slab is shared, so members are walked by
// their Group's Checkpoint instead.
func (a *Array) Checkpoint(c *checkpoint.Codec) {
	c.Section("cache.Array")
	c.Check(a.n == 1, "cache: member %d of a group of %d checkpoints through the group", a.member, a.n)
	a.checkpointState(c)
	a.checkpointSlab(c)
}

// Checkpoint walks a Group: its size as shape, each member's own state,
// then the one slab they share.
func (g *Group) Checkpoint(c *checkpoint.Codec) {
	c.Section("cache.Group")
	checkpoint.Shape(c, "cache.Group size", len(g.arrays), checkpoint.Int)
	for _, a := range g.arrays {
		a.checkpointState(c)
	}
	g.arrays[0].checkpointSlab(c)
}

// checkpointState walks an array's own mutable state: the
// random-replacement xorshift state, occupancy, per-set recency counters
// and way hints, decoded in place. Geometry (sets/ways/policy/shift/lru)
// and the line-address width, which sizes a packed slot, are shape: the
// receiver is always freshly constructed from the live Config and
// sources, its layout follows from them, and a checkpoint cut for
// another geometry or width fails the walk.
func (a *Array) checkpointState(c *checkpoint.Codec) {
	checkpoint.Shape(c, "cache.Array sets", a.sets, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array ways", a.ways, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array policy", a.policy, checkpoint.Uint)
	checkpoint.Shape(c, "cache.Array shift", a.shift, checkpoint.Int)
	checkpoint.Shape(c, "cache.Array lru", a.lru, checkpoint.Bool)
	checkpoint.Shape(c, "cache.Array line bits", a.lineBits, checkpoint.Int)
	checkpoint.Uint(c, &a.rndst)
	checkpoint.Int(c, &a.occupied)
	c.Check(a.occupied >= 0 && a.occupied <= a.sets*a.ways,
		"cache: checkpoint occupancy %d outside [0,%d]", a.occupied, a.sets*a.ways)
	checkpoint.Slab(c, a.setTick)
	checkpoint.Slab(c, a.hint)
}

// checkpointSlab walks the slab of the array's group: 8-byte words
// (Slab), or packed slots walked slot by slot (Packed).
func (a *Array) checkpointSlab(c *checkpoint.Codec) {
	if a.packed == nil {
		checkpoint.Slab(c, a.slab)
		return
	}
	checkpoint.Packed(c, a.packed, a.width, a.n*a.sets)
}
