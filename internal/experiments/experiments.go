// Package experiments reproduces every table and figure of the paper's
// motivation and evaluation sections. Each runner builds the systems it
// needs, warms them, measures a SMARTS-style window, and returns the same
// rows/series the paper reports, with String() printers that produce
// paper-shaped text tables.
//
// Runners accept a Mode: Quick (small windows, used by tests and the
// default benchmarks) or Full (paper-scale windows, used by `paperbench
// figures -full`). Both use the same systems and workloads; Quick trades some
// statistical tightness for wall-clock time.
//
// # Concurrent execution
//
// Every simulation runner decomposes its (system x workload x sweep-point)
// grid into independent Cells and executes them through RunCells, a worker
// pool sized by Mode.Parallelism (default GOMAXPROCS). Each cell's
// core.System is deterministic and confined to one goroutine, and results
// are assembled in submission order, so a figure's output is bit-identical
// at any parallelism level — Parallelism: 1 reproduces the historical
// sequential path exactly.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Mode sizes an experiment's warm-up and measurement.
type Mode struct {
	Name          string
	WarmInstr     int // functional warm-up instructions per core
	WarmCycles    sim.Cycle
	MeasureCycles sim.Cycle
	Scale         int64
	// Parallelism bounds the worker pool RunCells and RunGrid share: <= 0
	// uses GOMAXPROCS and 1 forces sequential execution. Results are identical at any setting;
	// only wall-clock time changes.
	Parallelism int
	// CheckpointDir, when non-empty, enables warm-state checkpointing
	// (DESIGN.md §11): every runner restores warmed systems from the
	// directory on key hit and saves them after cold builds. Restored
	// systems are bit-identical to from-scratch ones, so results do not
	// change; only warm-up wall-clock does.
	CheckpointDir string
	// Checkpoints, when non-nil, accumulates restore/save counters across
	// the run (paperbench prints them on exit).
	Checkpoints *CheckpointStats
}

// Quick is the test/bench mode.
func Quick() Mode {
	return Mode{Name: "quick", WarmInstr: 300_000, WarmCycles: 20_000, MeasureCycles: 60_000, Scale: 32}
}

// Full mirrors the paper's 100K warm / 200K measure cycle scheme at the
// default capacity scale.
func Full() Mode {
	return Mode{Name: "full", WarmInstr: 1_200_000, WarmCycles: 100_000, MeasureCycles: 200_000, Scale: core.DefaultScale}
}

// runOne builds, warms, and measures a single system: analytic pre-warm of
// the cache-resident footprints, functional instruction warm-up (shared
// through w when its sweep shares it), then the timed SMARTS window.
// cfg.Scale is already m.Scale. Hierarchy invariants are validated after
// the window; a violation panics rather than folding corrupt state into
// the reported metrics.
func runOne(cfg core.Config, specs []workload.Spec, m Mode, w *cellWarm) core.Metrics {
	sys, _ := buildWarm(cfg, specs, m.WarmInstr, m.CheckpointDir, m.Checkpoints, nil, w)
	met := sys.Run(m.WarmCycles, m.MeasureCycles)
	if msg := sys.CheckInvariants(); msg != "" {
		panic("invariant violation: " + msg)
	}
	return met
}

// row formatting helpers shared by the String() methods.
func header(cols ...string) string {
	return strings.Join(cols, "\t")
}

func fmtRow(vals []float64) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprintf("%.3f", v)
	}
	return strings.Join(parts, "\t")
}

// --- Fig 1: sensitivity to LLC capacity at fixed latency -----------------

// Fig1CapacitiesMB is the paper's x-axis.
var Fig1CapacitiesMB = []int64{8, 16, 32, 64, 128, 256, 512, 1024}

// Fig1Result holds performance vs capacity normalized to the 8MB baseline.
type Fig1Result struct {
	Workloads    []string
	CapacitiesMB []int64
	// Norm[w][c]: workload w's performance at capacity c / at 8MB.
	Norm [][]float64
}

// Fig1 sweeps shared-LLC capacity at fixed (baseline) latency on the
// scale-out suite — paper Fig 1.
func Fig1(m Mode) Fig1Result {
	suite := workload.ScaleOutSuite()
	res := Fig1Result{CapacitiesMB: Fig1CapacitiesMB}
	var cells []Cell
	for _, spec := range suite {
		res.Workloads = append(res.Workloads, spec.Name)
		for _, mb := range res.CapacitiesMB {
			cfg := core.BaselineConfig(16)
			cfg.LLCSize = mb << 20
			cells = append(cells, cell(fmt.Sprintf("fig1/%s/%dMB", spec.Name, mb), cfg, spec))
		}
	}
	ipcs := RunCellIPCs(cells, m)
	nc := len(res.CapacitiesMB)
	for wi := range suite {
		row := ipcs[wi*nc : (wi+1)*nc]
		res.Norm = append(res.Norm, stats.Normalize(row, mustPositive(row[0], cells[wi*nc].Label)))
	}
	return res
}

func (r Fig1Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 1: normalized performance vs LLC capacity (fixed latency)")
	cols := []string{"workload"}
	for _, mb := range r.CapacitiesMB {
		cols = append(cols, fmt.Sprintf("%dMB", mb))
	}
	fmt.Fprintln(&b, header(cols...))
	for i, w := range r.Workloads {
		fmt.Fprintf(&b, "%s\t%s\n", w, fmtRow(r.Norm[i]))
	}
	return b.String()
}

// --- Fig 2: sensitivity to LLC latency at different capacities -----------

// Fig2Result holds scale-out geomean performance vs added LLC latency,
// normalized to the 8MB-at-base-latency baseline.
type Fig2Result struct {
	CapacitiesMB []int64
	ExtraPct     []int // added latency as % of the baseline LLC round trip
	// Norm[c][l]: geomean at capacity c with latency point l.
	Norm [][]float64
}

// Fig2 sweeps added LLC access latency from 0 to 100% of the baseline hit
// time for capacities 64MB-1GB — paper Fig 2. The baseline hit time is
// ~23 cycles, so the sweep adds 0..23 cycles. The 8MB base-latency
// reference cells and the whole sweep grid run as one RunCells batch.
func Fig2(m Mode) Fig2Result {
	suite := workload.ScaleOutSuite()
	res := Fig2Result{
		CapacitiesMB: []int64{64, 128, 256, 512, 1024},
		ExtraPct:     []int{0, 20, 40, 60, 80, 100},
	}
	// Reference cells first: 8MB at base latency, one per workload.
	var cells []Cell
	for _, spec := range suite {
		cells = append(cells, cell("fig2/base/"+spec.Name, core.BaselineConfig(16), spec))
	}
	const baseRoundTrip = 23.0
	for _, mb := range res.CapacitiesMB {
		for _, pct := range res.ExtraPct {
			for _, spec := range suite {
				cfg := core.BaselineConfig(16)
				cfg.LLCSize = mb << 20
				cfg.LLCExtraLatency = sim.Cycle(float64(pct) / 100 * baseRoundTrip)
				cells = append(cells, cell(fmt.Sprintf("fig2/%s/%dMB/+%d%%", spec.Name, mb, pct), cfg, spec))
			}
		}
	}
	ipcs := RunCellIPCs(cells, m)
	base := ipcs[:len(suite)]
	for i := range base {
		mustPositive(base[i], cells[i].Label)
	}
	k := len(suite)
	for range res.CapacitiesMB {
		var row []float64
		for range res.ExtraPct {
			normPerWorkload := make([]float64, len(suite))
			for i := range suite {
				normPerWorkload[i] = ipcs[k] / base[i]
				k++
			}
			row = append(row, stats.Geomean(normPerWorkload))
		}
		res.Norm = append(res.Norm, row)
	}
	return res
}

func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 2: geomean performance vs added LLC latency (normalized to 8MB baseline)")
	cols := []string{"capacity"}
	for _, p := range r.ExtraPct {
		cols = append(cols, fmt.Sprintf("+%d%%", p))
	}
	fmt.Fprintln(&b, header(cols...))
	for i, mb := range r.CapacitiesMB {
		fmt.Fprintf(&b, "%dMB\t%s\n", mb, fmtRow(r.Norm[i]))
	}
	return b.String()
}

// --- Fig 3: LLC access breakdown ------------------------------------------

// Fig3Result is the read/write-sharing decomposition of LLC accesses on
// the 8MB shared baseline.
type Fig3Result struct {
	Workloads []string
	// Percent of LLC accesses per category.
	ReadsPct, WritesNoSharingPct, WritesRWSharingPct []float64
}

// Fig3 characterizes LLC accesses on the baseline — paper Fig 3.
func Fig3(m Mode) Fig3Result {
	var res Fig3Result
	var cells []Cell
	for _, spec := range workload.ScaleOutSuite() {
		res.Workloads = append(res.Workloads, spec.Name)
		cells = append(cells, cell("fig3/"+spec.Name, core.BaselineConfig(16), spec))
	}
	for _, met := range RunCells(cells, m) {
		s := met.Stats
		total := float64(s.LLCAccesses)
		res.ReadsPct = append(res.ReadsPct, 100*float64(s.Reads)/total)
		res.WritesNoSharingPct = append(res.WritesNoSharingPct, 100*float64(s.WritesPrivate)/total)
		res.WritesRWSharingPct = append(res.WritesRWSharingPct, 100*float64(s.WritesRWShared)/total)
	}
	return res
}

func (r Fig3Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 3: LLC access breakdown (%)")
	fmt.Fprintln(&b, header("workload", "reads", "writes-nosharing", "writes-rwsharing"))
	for i, w := range r.Workloads {
		fmt.Fprintf(&b, "%s\t%.1f\t%.1f\t%.1f\n", w, r.ReadsPct[i], r.WritesNoSharingPct[i], r.WritesRWSharingPct[i])
	}
	return b.String()
}

// --- Fig 4: latency sensitivity of RW-shared blocks -----------------------

// Fig4Result holds performance vs RW-shared access latency multiplier,
// normalized to 1x.
type Fig4Result struct {
	Workloads []string
	Mults     []int
	// Norm[w][k]: performance at multiplier k / at 1x.
	Norm [][]float64
}

// Fig4 artificially multiplies the LLC latency of RW-shared blocks —
// paper Fig 4.
func Fig4(m Mode) Fig4Result {
	res := Fig4Result{Mults: []int{1, 2, 3, 4}}
	suite := workload.ScaleOutSuite()
	var cells []Cell
	for _, spec := range suite {
		res.Workloads = append(res.Workloads, spec.Name)
		for _, mult := range res.Mults {
			cfg := core.BaselineConfig(16)
			cfg.RWSharedMult = mult
			cells = append(cells, cell(fmt.Sprintf("fig4/%s/%dx", spec.Name, mult), cfg, spec))
		}
	}
	ipcs := RunCellIPCs(cells, m)
	nm := len(res.Mults)
	for wi := range suite {
		row := ipcs[wi*nm : (wi+1)*nm]
		res.Norm = append(res.Norm, stats.Normalize(row, mustPositive(row[0], cells[wi*nm].Label)))
	}
	return res
}

func (r Fig4Result) String() string {
	var b strings.Builder
	fmt.Fprintln(&b, "Fig 4: performance vs RW-shared block latency multiplier")
	cols := []string{"workload"}
	for _, mult := range r.Mults {
		cols = append(cols, fmt.Sprintf("%dx", mult))
	}
	fmt.Fprintln(&b, header(cols...))
	for i, w := range r.Workloads {
		fmt.Fprintf(&b, "%s\t%s\n", w, fmtRow(r.Norm[i]))
	}
	return b.String()
}
