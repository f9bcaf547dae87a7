package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/workload"
)

// Cell is one independent simulation of an experiment grid: a system
// configuration running a workload assignment. Every figure/table runner
// decomposes into cells, which the runner executes concurrently — each
// core.System is deterministic and confined to a single goroutine, so the
// grid parallelizes with no cross-cell coordination.
type Cell struct {
	// Label names the cell in panics and diagnostics, e.g.
	// "fig10/WebSearch/SILO".
	Label  string
	Config core.Config
	Specs  []workload.Spec
}

// cell is a convenience constructor for single-workload cells.
func cell(label string, cfg core.Config, spec workload.Spec) Cell {
	return Cell{Label: label, Config: cfg, Specs: []workload.Spec{spec}}
}

// RunCells executes every cell under mode m and returns metrics in
// submission order, so callers assemble results exactly as the sequential
// loops they replace did and outputs stay bit-identical regardless of
// worker count. The cells run on streamOrdered's pool: m.Parallelism
// bounds it (<= 0 uses GOMAXPROCS, 1 degenerates to the in-place
// sequential path), and once a cell has failed no further cells are
// claimed. A panic inside any cell is re-raised on the calling
// goroutine, prefixed with the cell's label.
func RunCells(cells []Cell, m Mode) []core.Metrics {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = warmKey(c.config(m), c.Specs, nil, m.WarmInstr)
	}
	return runCells(cells, m, newWarmTable(keys, poolWorkers(len(cells), m.Parallelism)), keys)
}

// runCells is RunCells over a given warm-up table, whose cell i has
// warm-up key keys[i].
func runCells(cells []Cell, m Mode, tab *warmTable, keys []string) []core.Metrics {
	out := make([]core.Metrics, len(cells))
	streamOrdered(context.Background(), len(cells), m.Parallelism,
		func(i int) core.Metrics { return runCell(cells[i], m, tab.cell(i, keys[i])) },
		func(i int, met core.Metrics) bool {
			out[i] = met
			return true
		})
	return out
}

// config is the cell's configuration at m's scale.
func (c Cell) config(m Mode) core.Config {
	cfg := c.Config
	cfg.Scale = m.Scale
	return cfg
}

// runCell builds, warms, and measures one cell, like runOne but with the
// cell's label attached to any panic.
func runCell(c Cell, m Mode, w *cellWarm) core.Metrics {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("experiments: cell %q: %v", c.Label, r))
		}
	}()
	return runOne(c.config(m), c.Specs, m, w)
}

// RunCellIPCs runs the cells and reduces each to its aggregate IPC — the
// common case for normalized-performance figures.
func RunCellIPCs(cells []Cell, m Mode) []float64 {
	ms := RunCells(cells, m)
	ipcs := make([]float64, len(ms))
	for i, met := range ms {
		ipcs[i] = met.IPC()
	}
	return ipcs
}

// mustPositive guards normalization denominators: dividing by a zero (or
// negative, or NaN) baseline value would silently poison a whole
// normalized row with +Inf/NaN, so fail loudly naming the offending cell
// instead.
func mustPositive(v float64, label string) float64 {
	if !(v > 0) {
		panic(fmt.Sprintf("experiments: baseline cell %q produced non-positive value %v; cannot normalize", label, v))
	}
	return v
}
