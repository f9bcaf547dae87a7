package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Streamed per-window measurement (DESIGN.md §9). The historical pattern —
// snapshot the counters around each window, retain every Metrics,
// post-process at the end — keeps O(windows) state, which paper-scale
// sweeps with thousands of windows cannot afford. WindowStream replaces
// it with incremental emission: each window's Metrics is derived from the
// cumulative counters through a stats.WindowEmitter (exact uint64
// subtraction, so the stream is bit-identical to snapshot subtraction),
// the per-window IPC summary accumulates online (Welford, O(1)), and the
// Metrics handed to the caller reuses one buffer, so memory stays
// constant no matter how many windows stream through. Run is the first
// window of a fresh stream.

// statNames is the fixed flattening order of the Stats counters for
// streaming — appendCounters and statsFromDeltas must agree with it.
var statNames = []string{
	"llc_accesses", "local_hits", "remote_hits", "misses",
	"reads", "writes_private", "writes_rw_shared",
	"mem_accesses", "mem_writebacks", "vault_accesses", "dram_cache_hits",
	"invalidations", "forwards", "dir_accesses", "upgrades",
}

// appendCounters appends the counters in statNames order.
func (s *Stats) appendCounters(buf []uint64) []uint64 {
	return append(buf,
		s.LLCAccesses, s.LocalHits, s.RemoteHits, s.Misses,
		s.Reads, s.WritesPrivate, s.WritesRWShared,
		s.MemAccesses, s.MemWritebacks, s.VaultAccesses, s.DRAMCacheHits,
		s.Invalidations, s.Forwards, s.DirAccesses, s.Upgrades)
}

// statsFromDeltas is the inverse of appendCounters over a delta slice.
func statsFromDeltas(d []uint64) Stats {
	return Stats{
		LLCAccesses: d[0], LocalHits: d[1], RemoteHits: d[2], Misses: d[3],
		Reads: d[4], WritesPrivate: d[5], WritesRWShared: d[6],
		MemAccesses: d[7], MemWritebacks: d[8], VaultAccesses: d[9], DRAMCacheHits: d[10],
		Invalidations: d[11], Forwards: d[12], DirAccesses: d[13], Upgrades: d[14],
	}
}

// checkAccounting panics unless the LLC accesses split exactly into hit
// classes (LocalHits+RemoteHits+Misses) and into access types
// (Reads+WritesPrivate+WritesRWShared). Every LLC path in private.go and
// shared.go increments one term of each in the same call as
// LLCAccesses, so both identities hold on every window and only a bug
// can break them.
func (s *Stats) checkAccounting() {
	if s.LocalHits+s.RemoteHits+s.Misses != s.LLCAccesses ||
		s.Reads+s.WritesPrivate+s.WritesRWShared != s.LLCAccesses {
		panic(fmt.Sprintf("core: window accounting broken: %d LLC accesses, %d+%d+%d local/remote hits/misses, %d+%d+%d reads/private/RW-shared writes",
			s.LLCAccesses, s.LocalHits, s.RemoteHits, s.Misses, s.Reads, s.WritesPrivate, s.WritesRWShared))
	}
}

// WindowStream measures consecutive fixed-length windows on a System,
// emitting each window's Metrics incrementally.
type WindowStream struct {
	sys    *System
	window sim.Cycle
	em     *stats.WindowEmitter
	ipc    stats.Welford
	cum    []uint64 // reusable cumulative-counter buffer
	m      Metrics  // reused result; PerCoreRetired backing reused too
}

// StreamWindows starts the system's cores (if needed), runs warmCycles of
// timed warm-up, and returns a stream primed at the post-warm-up counter
// state: the first Next measures the first window after warm-up.
func (s *System) StreamWindows(warmCycles, window sim.Cycle) *WindowStream {
	if window <= 0 {
		panic("core: non-positive window length")
	}
	s.startCores()
	s.engine.Run(s.engine.Now() + warmCycles)

	names := make([]string, 0, len(statNames)+s.cfg.Cores)
	names = append(names, statNames...)
	for range s.cores {
		names = append(names, "retired")
	}
	ws := &WindowStream{
		sys:    s,
		window: window,
		em:     stats.NewWindowEmitter(names...),
		cum:    make([]uint64, 0, len(names)),
		m: Metrics{
			Kind:           s.cfg.Kind,
			Cycles:         window,
			PerCoreRetired: make([]uint64, s.cfg.Cores),
		},
	}
	ws.em.Prime(ws.cumulative())
	return ws
}

// cumulative flattens the current counter state into the reusable buffer:
// the Stats counters in statNames order, then per-core retired counts.
func (ws *WindowStream) cumulative() []uint64 {
	st := ws.sys.hier.stats()
	ws.cum = st.appendCounters(ws.cum[:0])
	for _, c := range ws.sys.cores {
		ws.cum = append(ws.cum, c.Retired)
	}
	return ws.cum
}

// Next runs one more window and returns its Metrics. The returned value
// (including its PerCoreRetired slice) is reused by the following Next —
// callers that retain windows must copy, but the whole point is not to:
// fold what you need into accumulators and move on. Aside from the
// simulation itself, the emit path allocates nothing.
func (ws *WindowStream) Next() *Metrics {
	e := ws.sys.engine
	e.Run(e.Now() + ws.window)
	return ws.emit()
}

// emit converts the current cumulative counters into the just-finished
// window's Metrics, checks its accounting identities, and folds its IPC
// into the summary.
func (ws *WindowStream) emit() *Metrics {
	delta := ws.em.Emit(ws.cumulative())
	ws.m.Stats = statsFromDeltas(delta)
	ws.m.Stats.checkAccounting()
	ws.m.Retired = 0
	for i := range ws.m.PerCoreRetired {
		r := delta[len(statNames)+i]
		ws.m.PerCoreRetired[i] = r
		ws.m.Retired += r
	}
	ws.ipc.Add(ws.m.IPC())
	return &ws.m
}

// Windows returns the number of windows measured so far.
func (ws *WindowStream) Windows() uint64 { return ws.em.Windows() }

// IPC returns the online accumulator of per-window aggregate IPC — mean,
// variance, extrema and t-based confidence intervals over the windows
// streamed so far.
func (ws *WindowStream) IPC() *stats.Welford { return &ws.ipc }
