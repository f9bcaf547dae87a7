package core

import (
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// fig10Cell builds one warmed cell of the Fig 10 grid (quick-mode
// parameters: Scale 32, 300K functional warm-up instructions per core) so
// the streamed-window differential runs against exactly the measurement
// the figure runners perform.
func fig10Cell(cfg Config) *System {
	cfg.Scale = 32
	sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	sys.Prewarm()
	sys.WarmFunctional(300_000)
	return sys
}

// sub returns s - o field-wise.
func (s Stats) sub(o Stats) Stats {
	return Stats{
		LLCAccesses:    s.LLCAccesses - o.LLCAccesses,
		LocalHits:      s.LocalHits - o.LocalHits,
		RemoteHits:     s.RemoteHits - o.RemoteHits,
		Misses:         s.Misses - o.Misses,
		Reads:          s.Reads - o.Reads,
		WritesPrivate:  s.WritesPrivate - o.WritesPrivate,
		WritesRWShared: s.WritesRWShared - o.WritesRWShared,
		MemAccesses:    s.MemAccesses - o.MemAccesses,
		MemWritebacks:  s.MemWritebacks - o.MemWritebacks,
		VaultAccesses:  s.VaultAccesses - o.VaultAccesses,
		DRAMCacheHits:  s.DRAMCacheHits - o.DRAMCacheHits,
		Invalidations:  s.Invalidations - o.Invalidations,
		Forwards:       s.Forwards - o.Forwards,
		DirAccesses:    s.DirAccesses - o.DirAccesses,
		Upgrades:       s.Upgrades - o.Upgrades,
	}
}

// snapshotWindow is the reference measurement: snapshot the hierarchy
// counters and every core's retired count, advance the engine one
// window, and subtract. It shares nothing with WindowStream but the
// simulation itself.
func snapshotWindow(s *System, window sim.Cycle) Metrics {
	startStats := s.hier.stats()
	startRetired := make([]uint64, len(s.cores))
	for i, c := range s.cores {
		startRetired[i] = c.Retired
	}
	s.engine.Run(s.engine.Now() + window)
	m := Metrics{
		Kind:           s.cfg.Kind,
		Cycles:         window,
		PerCoreRetired: make([]uint64, len(s.cores)),
		Stats:          s.hier.stats().sub(startStats),
	}
	for i, c := range s.cores {
		m.PerCoreRetired[i] = c.Retired - startRetired[i]
		m.Retired += m.PerCoreRetired[i]
	}
	return m
}

// The streamed-window contract (DESIGN.md §9): WindowStream's per-window
// Metrics are bit-identical — every counter, every per-core retired
// count — to snapshot subtraction around each window on the same
// deterministic system, and so are back-to-back Run calls. Both
// hierarchy families are covered: SILO (private vaults + directory) and
// Baseline (shared NUCA).
func TestWindowStreamMatchesSnapshotSubtractFig10(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	const (
		warm    sim.Cycle = 20_000
		window  sim.Cycle = 10_000
		windows           = 6
	)
	for _, cfg := range []Config{SILOConfig(16), BaselineConfig(16)} {
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			// Reference: snapshot and subtract around each window.
			ref := fig10Cell(cfg)
			ref.startCores()
			ref.engine.Run(ref.engine.Now() + warm)
			var want []Metrics
			var wantIPC stats.Welford
			for w := 0; w < windows; w++ {
				m := snapshotWindow(ref, window)
				want = append(want, m)
				wantIPC.Add(m.IPC())
			}

			// Streamed: same deterministic system, incremental emission.
			ws := fig10Cell(cfg).StreamWindows(warm, window)
			for w := 0; w < windows; w++ {
				got := ws.Next()
				if got.Kind != want[w].Kind || got.Cycles != want[w].Cycles ||
					got.Retired != want[w].Retired || got.Stats != want[w].Stats {
					t.Fatalf("window %d diverged:\nstreamed %+v\nsnapshot %+v", w, *got, want[w])
				}
				for c := range got.PerCoreRetired {
					if got.PerCoreRetired[c] != want[w].PerCoreRetired[c] {
						t.Fatalf("window %d core %d retired: streamed %d, snapshot %d",
							w, c, got.PerCoreRetired[c], want[w].PerCoreRetired[c])
					}
				}
			}
			if ws.Windows() != windows {
				t.Fatalf("Windows() = %d, want %d", ws.Windows(), windows)
			}
			// The online IPC summary saw exactly the reference windows, in
			// order, so it is bitwise equal to a reference accumulator.
			ipc := ws.IPC()
			if ipc.N() != wantIPC.N() || ipc.Mean() != wantIPC.Mean() ||
				ipc.Variance() != wantIPC.Variance() ||
				ipc.Min() != wantIPC.Min() || ipc.Max() != wantIPC.Max() {
				t.Fatalf("IPC accumulator diverged: %+v vs %+v", *ipc, wantIPC)
			}

			// Back-to-back Run calls measure the same windows, and each
			// returned PerCoreRetired survives the calls after it.
			runSys := fig10Cell(cfg)
			got := make([]Metrics, windows)
			for w := range got {
				wc := sim.Cycle(0)
				if w == 0 {
					wc = warm
				}
				got[w] = runSys.Run(wc, window)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("back-to-back Run diverged from the reference:\nRun       %+v\nreference %+v", got, want)
			}
		})
	}
}

// The emit path — counter flattening, delta emission, Metrics assembly,
// summary accumulation — must not allocate: a paper-scale sweep emits it
// once per window, forever. (The simulation that advances the window has
// its own small steady-state allocation budget; this isolates emission.)
func TestWindowStreamEmitAllocsZero(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	cfg := SILOConfig(16)
	cfg.Scale = 32
	sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	sys.Prewarm()
	sys.WarmFunctional(50_000)
	ws := sys.StreamWindows(1000, 1000)
	ws.Next() // one real window so every counter is live
	// Re-emitting without advancing the engine produces all-zero windows
	// through the identical code path.
	allocs := testing.AllocsPerRun(500, func() { ws.emit() })
	if allocs != 0 {
		t.Fatalf("emit path allocates %v per window, want 0", allocs)
	}
}

// Degenerate windows must fail loudly.
func TestWindowStreamPanicsOnBadWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on window <= 0")
		}
	}()
	cfg := SILOConfig(16)
	cfg.Scale = 32
	sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	sys.StreamWindows(0, 0)
}
