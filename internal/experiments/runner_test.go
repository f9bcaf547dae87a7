package experiments

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// The acceptance bar for the runner: a figure computed with the full
// worker pool is bit-identical (==, not approximately equal) to the
// sequential path on every cell.
func TestFig10ParallelMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	seq := Quick()
	seq.Parallelism = 1
	// Force a real worker pool even on single-core machines (where the
	// GOMAXPROCS default would degenerate to sequential).
	par := Quick()
	par.Parallelism = 4

	a := Fig10(seq)
	b := Fig10(par)
	if fmt.Sprintf("%v", a.Systems) != fmt.Sprintf("%v", b.Systems) ||
		fmt.Sprintf("%v", a.Workloads) != fmt.Sprintf("%v", b.Workloads) {
		t.Fatalf("headers diverged: %v/%v vs %v/%v", a.Systems, a.Workloads, b.Systems, b.Workloads)
	}
	for wi := range a.Norm {
		for si := range a.Norm[wi] {
			if a.Norm[wi][si] != b.Norm[wi][si] {
				t.Errorf("Norm[%d][%d]: sequential %v != parallel %v (%s on %s)",
					wi, si, a.Norm[wi][si], b.Norm[wi][si], a.Workloads[wi], a.Systems[si])
			}
		}
	}
	for si := range a.Geomean {
		if a.Geomean[si] != b.Geomean[si] {
			t.Errorf("Geomean[%s]: sequential %v != parallel %v", a.Systems[si], a.Geomean[si], b.Geomean[si])
		}
	}
	// The paper's headline result, pinned to the bit: any change to what
	// the simulator computes moves it.
	const siloGeomean = 1.3196591383249325
	if got := a.SpeedupOf("SILO"); math.Float64bits(got) != math.Float64bits(siloGeomean) {
		t.Errorf("Quick Fig 10 SILO geomean = %v (bits %#x), want %v (bits %#x)",
			got, math.Float64bits(got), siloGeomean, math.Float64bits(siloGeomean))
	}
}

// RunCells must return metrics in submission order whatever the worker
// count, including worker pools larger than the cell count.
func TestRunCellsPreservesOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	suite := workload.ScaleOutSuite()
	var cells []Cell
	for _, spec := range suite {
		cells = append(cells, cell("order/"+spec.Name, core.BaselineConfig(16), spec))
	}
	m := tinyMode()
	m.Parallelism = 1
	want := RunCells(cells, m)
	for _, workers := range []int{2, 3, len(cells), len(cells) + 7} {
		m.Parallelism = workers
		got := RunCells(cells, m)
		for i := range want {
			if got[i].Retired != want[i].Retired || got[i].IPC() != want[i].IPC() {
				t.Fatalf("workers=%d: cell %d (%s) diverged: retired %d vs %d",
					workers, i, cells[i].Label, got[i].Retired, want[i].Retired)
			}
		}
	}
}

// A panic inside a worker must surface on the caller, naming the cell.
func TestRunCellsPanicNamesCell(t *testing.T) {
	bad := core.BaselineConfig(16)
	cells := []Cell{{
		Label:  "bad/specs-mismatch",
		Config: bad,
		// Two specs for sixteen cores: core.NewSystem panics.
		Specs: []workload.Spec{workload.WebSearch(), workload.WebSearch()},
	}}
	for _, workers := range []int{1, 4} {
		m := tinyMode()
		m.Parallelism = workers
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: expected panic", workers)
				}
				if msg := fmt.Sprint(r); !strings.Contains(msg, "bad/specs-mismatch") {
					t.Fatalf("workers=%d: panic does not name the cell: %v", workers, msg)
				}
			}()
			RunCells(cells, m)
		}()
	}
}

// Zero-IPC baselines must fail loudly with the cell's name instead of
// emitting +Inf/NaN rows.
func TestMustPositiveNamesCell(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on zero baseline")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "fig2/base/WebSearch") {
			t.Fatalf("panic does not name the baseline cell: %v", msg)
		}
	}()
	mustPositive(0, "fig2/base/WebSearch")
}

// Sanity: the default worker pool actually uses the machine.
func TestDefaultParallelismIsGOMAXPROCS(t *testing.T) {
	if got := runtime.GOMAXPROCS(0); got < 1 {
		t.Fatalf("GOMAXPROCS = %d", got)
	}
	// A Mode zero value must not mean "sequential".
	if Quick().Parallelism != 0 {
		t.Fatal("Quick() should leave Parallelism at the GOMAXPROCS default")
	}
}
