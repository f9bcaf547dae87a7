// Package silo is a simulation library for studying private die-stacked
// DRAM last-level caches in server processors. It reproduces the system
// and evaluation of "Farewell My Shared LLC! A Case for Private Die-Stacked
// DRAM Caches for Servers" (Shahab, Zhu, Margaritov, Grot — MICRO 2018).
//
// The library models five cache organizations over a common substrate of
// out-of-order cores, a 2D-mesh interconnect, directory coherence, and
// calibrated synthetic server workloads:
//
//   - Baseline: an 8 MB shared NUCA SRAM LLC (Scale-out Processors style);
//   - BaselineDRAM: Baseline plus an 8 GB conventional page-based DRAM cache;
//   - SILO: one private, latency-optimized 256 MB die-stacked DRAM vault per
//     core, kept coherent by a MOESI duplicate-tag directory in the vaults;
//   - SILOCO: SILO with capacity-optimized 512 MB vaults;
//   - VaultsShared: latency-optimized vaults organized as a shared NUCA LLC.
//
// # Quickstart
//
//	cfg := silo.SILOConfig(16)
//	sys := silo.NewSystem(cfg, silo.WebSearch())
//	sys.Prewarm()
//	sys.WarmFunctional(300_000)
//	m := sys.Run(20_000, 60_000)
//	fmt.Printf("aggregate IPC: %.2f\n", m.IPC())
//
// The experiments subpackage entry points (re-exported here as RunFig10
// etc.) regenerate every table and figure of the paper's evaluation;
// `paperbench figures` prints them, and DESIGN.md documents the models behind
// them and the calibration targets.
package silo

import (
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Re-exported system types. See the internal packages for full
// documentation of each.
type (
	// Config describes one simulated system (kind, cores, cache geometry,
	// coherence protocol, optimizations).
	Config = core.Config
	// Kind selects the cache organization under study.
	Kind = core.Kind
	// Metrics summarizes one measured window (IPC, hit/miss decomposition,
	// traffic and coherence counters).
	Metrics = core.Metrics
	// Stats is the raw event-count record inside Metrics.
	Stats = core.Stats
	// Workload parameterizes one synthetic workload stream.
	Workload = workload.Spec
	// Mix is a named 4-benchmark SPEC CPU2006 combination (paper Table V).
	Mix = workload.Mix
	// VaultDesign is a die-stacked vault organization from the DRAM
	// technology model (tile geometry + capacity).
	VaultDesign = dram.VaultDesign
	// Cycle is simulated time in core clock cycles.
	Cycle = sim.Cycle
	// ExperimentMode sizes experiment warm-up and measurement windows and
	// bounds the runner's worker pool via its Parallelism field.
	ExperimentMode = experiments.Mode
	// SimCell is one independent simulation (config + per-core workloads +
	// label) for RunCells.
	SimCell = experiments.Cell
)

// RunCells executes independent simulation cells on a worker pool sized by
// the mode's Parallelism (default GOMAXPROCS), returning metrics in
// submission order; results are bit-identical to sequential execution.
var RunCells = experiments.RunCells

// System kinds.
const (
	Baseline     = core.Baseline
	BaselineDRAM = core.BaselineDRAM
	SILO         = core.SILO
	SILOCO       = core.SILOCO
	VaultsShared = core.VaultsShared
)

// Configuration presets (paper Sec. VI-A).
var (
	// BaselineConfig is the shared 8MB NUCA LLC baseline.
	BaselineConfig = core.BaselineConfig
	// BaselineDRAMConfig adds the conventional 8GB DRAM cache.
	BaselineDRAMConfig = core.BaselineDRAMConfig
	// SILOConfig is the paper's SILO organization.
	SILOConfig = core.SILOConfig
	// SILOCOConfig is SILO with capacity-optimized vaults.
	SILOCOConfig = core.SILOCOConfig
	// VaultsSharedConfig shares latency-optimized vaults NUCA-style.
	VaultsSharedConfig = core.VaultsSharedConfig
)

// Workload presets (paper Table IV and Table V).
var (
	WebSearch   = workload.WebSearch
	DataServing = workload.DataServing
	WebFrontend = workload.WebFrontend
	MapReduce   = workload.MapReduce
	SATSolver   = workload.SATSolver
	TPCC        = workload.TPCC
	Oracle      = workload.Oracle
	Zeus        = workload.Zeus
	// ScaleOutSuite and EnterpriseSuite return the paper's suites.
	ScaleOutSuite   = workload.ScaleOutSuite
	EnterpriseSuite = workload.EnterpriseSuite
	// Spec2006 returns a named SPEC CPU2006 benchmark model (panicking on
	// unknown names — check Spec2006Names first for user input);
	// Spec06Mixes the paper's ten 4-core mixes.
	Spec2006      = workload.Spec2006
	Spec2006Names = workload.Spec2006Names
	Spec06Mixes   = workload.Spec06Mixes
	MixSpecs      = workload.MixSpecs
)

// System wraps the simulated machine: cores driving workload streams over
// the configured cache organization.
type System struct {
	inner *core.System
}

// NewSystem builds a system in which every core runs the given workload.
// Use NewMixedSystem for per-core workloads.
func NewSystem(cfg Config, w Workload) *System {
	return &System{inner: core.NewSystem(cfg, []workload.Spec{w})}
}

// NewMixedSystem builds a system with one workload per core (len(ws) must
// equal cfg.Cores).
func NewMixedSystem(cfg Config, ws []Workload) *System {
	return &System{inner: core.NewSystem(cfg, ws)}
}

// Prewarm seeds steady-state cache contents analytically (the substitute
// for the paper's warmed simulation checkpoints). Call before Run.
func (s *System) Prewarm() { s.inner.Prewarm() }

// WarmFunctional replays n instructions per core through the hierarchy
// functionally (no timing), completing cache warm-up.
func (s *System) WarmFunctional(n int) { s.inner.WarmFunctional(n) }

// Run executes warm timed cycles followed by a measured window of measure
// (> 0) cycles and returns its metrics (the paper's SMARTS-style scheme).
func (s *System) Run(warm, measure Cycle) Metrics { return s.inner.Run(warm, measure) }

// CheckInvariants validates coherence and inclusion invariants, returning
// a description of the first violation or "" when healthy.
func (s *System) CheckInvariants() string { return s.inner.CheckInvariants() }

// DRAM technology model entry points (paper Sec. IV).
var (
	// TileSweep reproduces Fig 7 (tile dimensions vs latency and area).
	TileSweep = dram.TileSweep
	// EnumerateVaultDesigns reproduces the Fig 8 design-space scatter.
	EnumerateVaultDesigns = dram.EnumerateVaultDesigns
	// VaultEnvelope returns the lowest-latency design per capacity.
	VaultEnvelope = dram.Envelope
	// LatencyOptimizedVault and CapacityOptimizedVault are the two design
	// points of Table I.
	LatencyOptimizedVault  = dram.LatencyOptimized
	CapacityOptimizedVault = dram.CapacityOptimized
)

// Experiment modes.
var (
	// QuickMode runs experiments with reduced windows (tests, benches).
	QuickMode = experiments.Quick
	// FullMode mirrors the paper's measurement windows.
	FullMode = experiments.Full
)

// Experiment runners. Each regenerates one table or figure of the paper
// and returns a result whose String method prints the paper-shaped table.
var (
	RunFig1   = experiments.Fig1
	RunFig2   = experiments.Fig2
	RunFig3   = experiments.Fig3
	RunFig4   = experiments.Fig4
	RunFig7   = experiments.Fig7
	RunFig8   = experiments.Fig8
	RunTable1 = experiments.Table1
	RunFig10  = experiments.Fig10
	RunFig11  = experiments.Fig11
	RunFig12  = experiments.Fig12
	RunFig13  = experiments.Fig13
	RunFig14  = experiments.Fig14
	RunFig15  = experiments.Fig15
	RunTable6 = experiments.Table6
	RunFig16  = experiments.Fig16
)
