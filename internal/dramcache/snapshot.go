package dramcache

import "repro/internal/checkpoint"

// Checkpoint walks the hit/miss/alloc counters and the page-frame tag
// array, decoded in place. Unlike the timing-only components, this state
// is live at the checkpoint cut: functional warm-up drives Access for
// every LLC fill, so the frame tags and counters carry the warmed
// contents.
func (c *Cache) Checkpoint(cc *checkpoint.Codec) {
	cc.Section("dramcache.Cache")
	checkpoint.Uint(cc, &c.Hits)
	checkpoint.Uint(cc, &c.Misses)
	checkpoint.Uint(cc, &c.Allocs)
	checkpoint.Uint(cc, &c.PageEvicts)
	checkpoint.Slab(cc, c.pages)
}
