package experiments

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Shared functional warm-up (DESIGN.md §8). A cell's functional warm-up
// consumes ops that depend only on its warm-up key — the workload specs
// or scenario digest, cores, scale, seed and warm length — never on the
// system under study. A sweep's warmTable records the warm-up of every
// key two or more of its cells share once (core.RecordWarmup) and
// replays it into each of them (System.ReplayWarmup), so a Fig 10
// workload's five systems generate its ops once instead of five times.
// Replay is bit-identical to the inline warm-up, so results do not
// change; only host time does.

// warmKey names the functional warm-up of a cell: its sources' inputs
// (the specs, or the scenario's digest, and cores, scale and seed) and
// the warm length. Nothing about the hierarchy is in it, so every system
// of a workload shares one key (TestWarmKeyCovers).
func warmKey(cfg core.Config, specs []workload.Spec, scen *scenario.Scenario, warmInstr int) string {
	parts := []string{fmt.Sprint(cfg.Cores), fmt.Sprint(cfg.Scale), fmt.Sprint(cfg.Seed), fmt.Sprint(warmInstr)}
	if scen != nil {
		parts = append(parts, "scenario", scen.Digest())
	}
	for _, sp := range specs {
		parts = append(parts, fmt.Sprintf("%+v", sp))
	}
	return robust.Key(parts...)
}

// warmTable is one sweep's store of recorded warm-ups. Its policy:
//   - a key gets a trace only when at least two of the sweep's cells
//     share it, and only while two of them have yet to warm;
//   - the first cell of such a key that finds a free slot records the
//     trace before its own build, and cells of the key that start
//     meanwhile build and Prewarm, then wait for the recording;
//   - at most one trace per worker is alive at once, and a cell that
//     finds no free slot warms inline;
//   - a trace is dropped once the last cell of its key has warmed,
//     whether by replay, inline or from a checkpoint.
//
// A nil *warmTable shares nothing: every cell warms inline.
type warmTable struct {
	mu   sync.Mutex
	free int // trace slots left
	keys map[string]*warmEntry

	// record is core.RecordWarmup; tests wrap it to count recordings or
	// inject failures.
	record func([]workload.Source, int) *core.WarmTrace
	// live counts the traces alive, recorded or recording, and maxLive
	// the most alive at once.
	live, maxLive int
}

// warmEntry is one shared key's state.
type warmEntry struct {
	// pending holds the sweep indices of the key's cells that have not
	// warmed yet.
	pending map[int]bool
	// ready is nil until a recording starts, and is closed when it ends;
	// trace is then the recording, or nil once it failed or was dropped.
	ready chan struct{}
	trace *core.WarmTrace
	slot  bool // the entry holds one of the table's slots
}

// newWarmTable builds the table of a sweep whose cell i has warm-up key
// keys[i] ("" for a cell that will not warm), for a pool of workers
// workers. It returns nil when no two cells share a key.
func newWarmTable(keys []string, workers int) *warmTable {
	t := &warmTable{free: workers, keys: map[string]*warmEntry{}, record: core.RecordWarmup}
	for i, k := range keys {
		if k == "" {
			continue
		}
		e := t.keys[k]
		if e == nil {
			e = &warmEntry{pending: map[int]bool{}}
			t.keys[k] = e
		}
		e.pending[i] = true
	}
	for k, e := range t.keys {
		if len(e.pending) < 2 {
			delete(t.keys, k)
		}
	}
	if len(t.keys) == 0 {
		return nil
	}
	return t
}

// cellWarm is one cell's view of its sweep's warmTable; the nil view
// warms inline. It holds no per-attempt state, so a retried cell's
// attempts may share it.
type cellWarm struct {
	t   *warmTable
	idx int
	key string
}

// cell returns the view of the cell at sweep index idx with warm-up key
// key.
func (t *warmTable) cell(idx int, key string) *cellWarm {
	if t == nil {
		return nil
	}
	return &cellWarm{t: t, idx: idx, key: key}
}

// begin joins the key's trace and returns its entry, or nil for a cell
// that warms inline: it returns at once when the key has a recording,
// started or finished, and records it when the cell is the first of a
// shared key to find a free slot. It runs before the cell's build, so
// the cells that start meanwhile find the recording done, or nearly,
// once they have built and Prewarmed. sources builds the fresh sources
// a recording runs on. A panic while recording releases the slot and
// the cells waiting for the trace (they then warm inline), and
// propagates.
func (w *cellWarm) begin(sources func() []workload.Source, warmInstr int) *warmEntry {
	if w == nil {
		return nil
	}
	t := w.t
	t.mu.Lock()
	e := t.keys[w.key]
	switch {
	case e == nil || !e.pending[w.idx]:
		// An unshared key, or a retried cell that has warmed before.
		t.mu.Unlock()
		return nil
	case e.ready != nil:
		t.mu.Unlock()
		return e
	case t.free == 0 || len(e.pending) < 2:
		t.mu.Unlock()
		return nil
	}
	e.ready, e.slot = make(chan struct{}), true
	t.free--
	t.live++
	t.maxLive = max(t.maxLive, t.live)
	t.mu.Unlock()

	var tr *core.WarmTrace
	defer func() {
		t.mu.Lock()
		if tr != nil {
			e.trace = tr
		} else {
			t.drop(e)
		}
		t.mu.Unlock()
		close(e.ready)
	}()
	tr = t.record(sources(), warmInstr)
	return e
}

// warm brings sys, built and Prewarmed, through its functional warm-up:
// by replaying the trace of e, the entry begin returned, once its
// recording has ended, or inline when there is none.
func (w *cellWarm) warm(e *warmEntry, sys *core.System, warmInstr int) {
	var tr *core.WarmTrace
	if e != nil {
		<-e.ready
		w.t.mu.Lock()
		tr = e.trace
		w.t.mu.Unlock()
	}
	if tr != nil {
		sys.ReplayWarmup(tr)
	} else {
		sys.WarmFunctional(warmInstr)
	}
}

// release marks the cell warmed, by whatever means, or failed; the last
// cell of a key to release it drops the key's trace. Only a cell's first
// release counts, so retries and deferred calls are harmless.
func (w *cellWarm) release() {
	if w == nil {
		return
	}
	t := w.t
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.keys[w.key]
	if e == nil || !e.pending[w.idx] {
		return
	}
	delete(e.pending, w.idx)
	if len(e.pending) == 0 {
		t.drop(e)
	}
}

// drop frees e's trace and slot; t.mu is held.
func (t *warmTable) drop(e *warmEntry) {
	e.trace = nil
	if e.slot {
		e.slot = false
		t.free++
		t.live--
	}
}
