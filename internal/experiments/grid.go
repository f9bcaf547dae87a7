package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/robust"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Batch-mode sweep grids. A Grid is an arbitrary (system x workload x
// config-override) cross product — the evaluation style of the
// die-stacked design-space literature — executed by RunGrid
// (gridexec.go) on streamOrdered, the one worker pool the figure
// runners' RunCells also uses. Each completed cell is emitted as one
// JSON-lines record (with online t-based confidence intervals from the
// streamed window engine) instead of buffering the whole sweep, so a
// sweep's memory footprint is bounded by the worker pool, not the grid
// size.

// Override names a configuration mutation applied on top of a base system
// config — one axis point of the grid's third dimension.
type Override struct {
	Name  string
	Apply func(*core.Config)
}

// NoOverride is the identity override for grids that only sweep
// (system x workload).
func NoOverride() Override {
	return Override{Name: "-", Apply: func(*core.Config) {}}
}

// GridSpec describes a sweep grid. Cells are enumerated system-major,
// then workload, then override, and results always stream in that
// enumeration order regardless of Mode.Parallelism.
type GridSpec struct {
	Systems   []core.Config
	Workloads []workload.Spec
	// Scenarios are compiled spec files swept as first-class workload
	// axis points alongside Workloads: each (system, scenario, override)
	// triple is one cell, named "scenario:<name>" in the workload column.
	// A scenario binds every core itself, so the cell ignores the uniform
	// one-spec-per-core layout and compiles per-core sources instead.
	Scenarios []*scenario.Scenario
	// Overrides defaults to {NoOverride()} when empty.
	Overrides []Override
	// Windows is the number of measurement windows per cell (the CI
	// sample count); Mode.MeasureCycles is split evenly across them.
	// <= 0 selects DefaultGridWindows.
	Windows int
	// Confidence is the two-sided CI level; <= 0 selects 0.95.
	Confidence float64
}

// DefaultGridWindows is the per-cell window count when GridSpec.Windows
// is unset: enough samples for a meaningful t-interval while keeping the
// per-window length well above the pipeline drain transient.
const DefaultGridWindows = 8

// GridCellResult is one completed cell — exactly one JSON-lines record of
// the batch output. All fields except WallMS are deterministic functions
// of the cell's configuration, so grid output is byte-identical across
// parallelism levels once WallMS is masked (TestGridGoldenDeterminism).
type GridCellResult struct {
	Index    int    `json:"index"`
	System   string `json:"system"`
	Workload string `json:"workload"`
	Override string `json:"override"`

	Scale   int64  `json:"scale"`
	Windows int    `json:"windows"`
	Cycles  uint64 `json:"cycles"`  // total measured cycles (all windows)
	Retired uint64 `json:"retired"` // total retired instructions

	// IPC is the aggregate over the whole measurement (total retired /
	// total cycles); the remaining fields summarize the per-window IPC
	// distribution, streamed through stats.Welford.
	IPC       float64 `json:"ipc"`
	IPCMean   float64 `json:"ipc_mean"`
	IPCStdDev float64 `json:"ipc_stddev"`
	IPCMin    float64 `json:"ipc_min"`
	IPCMax    float64 `json:"ipc_max"`
	// Confidence and the t-based interval of the per-window IPC mean.
	Confidence float64 `json:"confidence"`
	IPCCILow   float64 `json:"ipc_ci_low"`
	IPCCIHigh  float64 `json:"ipc_ci_high"`

	LLCHitRate float64 `json:"llc_hit_rate"`
	MissRate   float64 `json:"miss_rate"`

	// WallMS is the cell's host wall-clock time — the only
	// non-deterministic field.
	WallMS float64 `json:"wall_ms"`

	// Error is non-nil when the cell permanently failed under the
	// SkipFailed policy (GridOptions.OnError): the structured failure
	// record — kind, phase, message, stack digest, attempts — replaces
	// the measurement fields, which stay zero. Successful records omit
	// the field entirely, so fault-tolerant output stays byte-identical
	// to the historical format.
	Error *CellError `json:"error,omitempty"`
}

// Validate reports whether the spec describes a runnable grid — the
// error-returning counterpart of the panics normalized applies, for
// CLI-reachable paths (RunGrid validates instead of panicking; panics
// remain only for internal invariant violations).
func (g GridSpec) Validate() error {
	if len(g.Systems) == 0 || len(g.Workloads)+len(g.Scenarios) == 0 {
		return errors.New("grid needs at least one system and one workload or scenario (pass systems=... and workloads=.../scenarios=...)")
	}
	if g.Confidence >= 1 {
		return fmt.Errorf("grid confidence %v outside (0,1) — e.g. 0.95, not a percentage", g.Confidence)
	}
	return nil
}

// normalized returns the spec with defaults applied.
func (g GridSpec) normalized() GridSpec {
	if err := g.Validate(); err != nil {
		panic("experiments: " + err.Error())
	}
	if len(g.Overrides) == 0 {
		g.Overrides = []Override{NoOverride()}
	}
	if g.Windows <= 0 {
		g.Windows = DefaultGridWindows
	}
	if g.Confidence <= 0 {
		g.Confidence = 0.95
	}
	return g
}

// ScenarioDigests returns the content digest of every scenario axis
// point, in axis order. The distributed runner cross-checks these at
// worker registration: the grid string ships file *paths*, so two
// processes can compile the same string from divergent file copies —
// equal digests prove they didn't.
func (g GridSpec) ScenarioDigests() []string {
	out := make([]string, len(g.Scenarios))
	for i, s := range g.Scenarios {
		out[i] = s.Digest()
	}
	return out
}

// Cells returns the number of cells the grid enumerates.
func (g GridSpec) Cells() int {
	g = g.normalized()
	return len(g.Systems) * (len(g.Workloads) + len(g.Scenarios)) * len(g.Overrides)
}

// gridCell is one enumerated cell before execution.
type gridCell struct {
	index          int
	system, wl, ov string
	cfg            core.Config
	spec           workload.Spec      // uniform-workload cells
	scen           *scenario.Scenario // scenario cells (spec unused)
	windows        int
	confidence     float64
}

// warmKey is the cell's warm-up key under m (warmKey).
func (c gridCell) warmKey(m Mode) string {
	if c.scen != nil {
		return warmKey(c.cfg, nil, c.scen, m.WarmInstr)
	}
	return warmKey(c.cfg, []workload.Spec{c.spec}, nil, m.WarmInstr)
}

// enumerate builds the cell list: system-major, then workload, then
// override. Mode.Scale is applied before the override so an override can
// re-target the scale (the paper-scale sweeps that motivate the grid).
func (g GridSpec) enumerate(m Mode) []gridCell {
	g = g.normalized()
	cells := make([]gridCell, 0, g.Cells())
	for _, sys := range g.Systems {
		add := func(wl string, spec workload.Spec, scen *scenario.Scenario) {
			for _, ov := range g.Overrides {
				cfg := sys
				cfg.Scale = m.Scale
				ov.Apply(&cfg)
				cells = append(cells, gridCell{
					index:      len(cells),
					system:     sys.Kind.String(),
					wl:         wl,
					ov:         ov.Name,
					cfg:        cfg,
					spec:       spec,
					scen:       scen,
					windows:    g.Windows,
					confidence: g.Confidence,
				})
			}
		}
		for _, spec := range g.Workloads {
			add(spec.Name, spec, nil)
		}
		for _, scen := range g.Scenarios {
			add("scenario:"+scen.Name, workload.Spec{}, scen)
		}
	}
	return cells
}

// phaseTracker records which phase of a cell a goroutine is in, so a
// watchdog firing on another goroutine can name the phase in its
// timeout record. The nil tracker is valid and tracks nothing.
type phaseTracker struct {
	v atomic.Value // string
}

func (p *phaseTracker) set(phase string) {
	if p != nil {
		p.v.Store(phase)
	}
}

func (p *phaseTracker) get() string {
	if p == nil {
		return ""
	}
	if s, ok := p.v.Load().(string); ok {
		return s
	}
	return "enumerate"
}

// simulateCell builds, warms and measures one grid cell through the
// streamed window engine: Windows consecutive windows of
// MeasureCycles/Windows cycles each, per-window IPC folded into an online
// accumulator — no per-window history is retained. inj (nil-safe)
// injects deterministic faults for the robustness harness; ph (nil-safe)
// exposes the current phase to a watchdog.
func simulateCell(ctx context.Context, c gridCell, m Mode, inj *robust.Injector, attempt int, ph *phaseTracker, w *cellWarm) GridCellResult {
	start := time.Now()
	window := m.MeasureCycles / sim.Cycle(c.windows) // positive: RunGrid checked the budget
	// Injected faults land before the build phase: the injection site for
	// the panic/stall matrix (a stall aborts early if ctx cancels, so
	// abandoned attempts unwind instead of sleeping on).
	inj.Fire(ctx, "cell", c.index, attempt)

	var sys *core.System
	if c.scen != nil {
		sys, _ = buildWarmScenario(c.cfg, c.scen, m.WarmInstr, m.CheckpointDir, m.Checkpoints, ph, w)
	} else {
		sys, _ = buildWarm(c.cfg, []workload.Spec{c.spec}, m.WarmInstr, m.CheckpointDir, m.Checkpoints, ph, w)
	}
	ph.set("measure")
	ws := sys.StreamWindows(m.WarmCycles, window)
	var retired, llcAccesses, hits, misses uint64
	for w := 0; w < c.windows; w++ {
		met := ws.Next()
		retired += met.Retired
		llcAccesses += met.Stats.LLCAccesses
		hits += met.Stats.LocalHits + met.Stats.RemoteHits
		misses += met.Stats.Misses
	}
	ph.set("check")
	if msg := sys.CheckInvariants(); msg != "" {
		panic("invariant violation: " + msg)
	}

	ipc := ws.IPC()
	lo, hi := ipc.CI(c.confidence)
	// A 1-window cell has no variance estimate: report 0 spread (the CI
	// already degenerates to [mean, mean]) rather than NaN, which
	// encoding/json rejects.
	stddev := ipc.StdDev()
	if c.windows < 2 {
		stddev = 0
	}
	totalCycles := uint64(window) * uint64(c.windows)
	r := GridCellResult{
		Index:      c.index,
		System:     c.system,
		Workload:   c.wl,
		Override:   c.ov,
		Scale:      c.cfg.Scale,
		Windows:    c.windows,
		Cycles:     totalCycles,
		Retired:    retired,
		IPC:        float64(retired) / float64(totalCycles),
		IPCMean:    ipc.Mean(),
		IPCStdDev:  stddev,
		IPCMin:     ipc.Min(),
		IPCMax:     ipc.Max(),
		Confidence: c.confidence,
		IPCCILow:   lo,
		IPCCIHigh:  hi,
		WallMS:     float64(time.Since(start).Nanoseconds()) / 1e6,
	}
	if llcAccesses > 0 {
		r.LLCHitRate = float64(hits) / float64(llcAccesses)
		r.MissRate = float64(misses) / float64(llcAccesses)
	}
	return r
}

// streamOrdered runs fn(0..n-1) on a bounded worker pool and delivers
// every result to emit in index order, on the calling goroutine, as soon
// as the next-in-order result is available. It is the package's only
// worker pool: RunCells collects its emissions into a slice, RunGrid
// streams them. Buffering is O(workers), not O(n) — a token semaphore
// stops workers from claiming an index until earlier ones have been
// emitted, so even pathological per-cell skew (one slow cell at the
// cursor, everything after it fast) cannot grow the reorder window past
// 2*workers. emit returning false cancels: no further indices are
// claimed and nothing more is emitted. Cancelling ctx has the same
// effect — workers stop claiming indices, in-flight fn calls are
// drained (their results discarded), and the pool winds down with no
// goroutine leaks; already-emitted results are unaffected. A panic in fn
// stops the pool claiming indices and is re-raised on the caller once
// the workers have wound down. parallelism <= 0 uses GOMAXPROCS; 1
// degenerates to the in-place sequential path.
func streamOrdered[T any](ctx context.Context, n, parallelism int, fn func(i int) T, emit func(i int, v T) bool) {
	if n == 0 {
		return
	}
	workers := poolWorkers(n, parallelism)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			if !emit(i, fn(i)) {
				return
			}
		}
		return
	}

	type result struct {
		i        int
		v        T
		panicked any
	}
	var (
		next    atomic.Int64
		stopped atomic.Bool
		wg      sync.WaitGroup
		results = make(chan result, 2*workers)
		// tokens bounds claimed-but-not-yet-emitted indices: a worker
		// acquires one before claiming an index; the consumer releases it
		// when that index is emitted (or discarded after a panic/cancel).
		// The cursor's index is always the earliest claimed, so its
		// holder is either computing or already in pending — the consumer
		// can always make progress and the pool cannot deadlock.
		tokens = make(chan struct{}, 2*workers)
	)
	next.Store(-1)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				tokens <- struct{}{}
				i := int(next.Add(1))
				if i >= n || stopped.Load() || ctx.Err() != nil {
					<-tokens
					return
				}
				r := result{i: i}
				func() {
					defer func() {
						if p := recover(); p != nil {
							r.panicked = p
							stopped.Store(true)
						}
					}()
					r.v = fn(i)
				}()
				results <- r
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// Reorder window: completed-out-of-order results wait here until the
	// cursor reaches them, holding their token; the semaphore caps it at
	// 2*workers entries.
	pending := make(map[int]T, 2*workers)
	var firstPanic any
	cursor := 0
	doomed := false
	for r := range results {
		if r.panicked != nil {
			if firstPanic == nil {
				firstPanic = r.panicked
			}
			<-tokens
			continue
		}
		if !doomed && ctx.Err() != nil {
			// Graceful shutdown: stop claiming and emitting, but keep
			// draining so every worker's in-flight result releases its
			// token and the pool exits cleanly.
			doomed = true
			stopped.Store(true)
			for k := range pending {
				delete(pending, k)
				<-tokens
			}
		}
		if doomed || firstPanic != nil {
			<-tokens // discard; the stream is already over
			continue
		}
		pending[r.i] = r.v
		for {
			v, ok := pending[cursor]
			if !ok {
				break
			}
			delete(pending, cursor)
			<-tokens
			if !emit(cursor, v) {
				doomed = true
				stopped.Store(true)
				// Drop anything already reordered; later arrivals are
				// discarded above as they drain.
				for k := range pending {
					delete(pending, k)
					<-tokens
				}
				break
			}
			cursor++
		}
	}
	if firstPanic != nil {
		panic(firstPanic) // already labeled by fn
	}
}

// poolWorkers is the worker count of streamOrdered's pool for n indices
// at the given parallelism: GOMAXPROCS when it is <= 0, at most n.
func poolWorkers(n, parallelism int) int {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return min(parallelism, n)
}
