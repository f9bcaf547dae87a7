package dramcache

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Snapshot serializes the page-frame tag array and the hit/miss/alloc
// counters. Unlike the timing-only components, this state is live at
// the checkpoint cut: functional warm-up drives Access for every LLC
// fill, so the frame tags and counters carry the warmed contents.
func (c *Cache) Snapshot(w *checkpoint.Writer) {
	w.Section("dramcache.Cache")
	w.U64(c.Hits)
	w.U64(c.Misses)
	w.U64(c.Allocs)
	w.U64(c.PageEvicts)
	checkpoint.WriteSlab(w, c.pages)
}

// Restore overwrites a freshly constructed cache, decoding the frame
// tags in place; a frame count other than the cache's is an error.
func (c *Cache) Restore(r *checkpoint.Reader) error {
	if err := r.Section("dramcache.Cache"); err != nil {
		return err
	}
	hits := r.U64()
	misses := r.U64()
	allocs := r.U64()
	pageEvicts := r.U64()
	checkpoint.ReadSlab(r, c.pages)
	if err := r.Err(); err != nil {
		return fmt.Errorf("dramcache: %w", err)
	}
	c.Hits = hits
	c.Misses = misses
	c.Allocs = allocs
	c.PageEvicts = pageEvicts
	return nil
}
