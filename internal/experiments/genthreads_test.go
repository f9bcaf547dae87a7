package experiments

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/robust"
)

// TestGridGenThreadsBitIdentical extends the grid's byte-identity
// contract to off-thread generation: the same grid at Mode.GenThreads 0
// and > 0 must emit byte-identical JSON-lines records modulo wall_ms —
// the CLI-level face of the ring determinism contract (DESIGN.md §12).
func TestGridGenThreadsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	want := jsonLines(collectGrid(t, g, m))
	for _, gen := range []int{1, 4} {
		gm := m
		gm.GenThreads = gen
		if got := jsonLines(collectGrid(t, g, gm)); !bytes.Equal(got, want) {
			t.Fatalf("gen-threads=%d grid output diverged from the synchronous path", gen)
		}
	}
}

// TestGridGenThreadsFaultPathsNoLeak drives the fault-tolerant executor
// with producer goroutines live — injected cell panic in skip mode, a
// watchdog-abandoned stall, and mid-sweep cancellation — and requires
// every producer to wind down (simulateCell's deferred Close on each exit
// path).
func TestGridGenThreadsFaultPathsNoLeak(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	checkGoroutineLeaks(t)
	g, m := faultGrid(), faultMode()
	m.GenThreads = 2
	m.Parallelism = 2

	t.Run("cell-panic-skip", func(t *testing.T) {
		inj := robust.NewInjector(1, robust.Plan{PanicCells: map[int]int{1: -1}})
		rs, err := collectOpts(t, context.Background(), g, m, GridOptions{OnError: robust.SkipFailed, Injector: inj})
		if err != nil {
			t.Fatal(err)
		}
		if len(rs) != g.Cells() {
			t.Fatalf("sweep incomplete: %d of %d records", len(rs), g.Cells())
		}
	})

	t.Run("watchdog-abandon", func(t *testing.T) {
		inj := robust.NewInjector(0, robust.Plan{StallCells: map[int]time.Duration{0: 2 * time.Second}})
		rs, err := collectOpts(t, context.Background(), g, m, GridOptions{
			OnError:      robust.SkipFailed,
			CellDeadline: 200 * time.Millisecond,
			Injector:     inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rs[0].Error == nil {
			t.Fatal("stalled cell not timed out")
		}
	})

	t.Run("cancel-mid-sweep", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		err := RunGrid(ctx, g, m, GridOptions{}, nil, func(GridCellResult) bool {
			n++
			cancel()
			return true
		})
		if err == nil {
			t.Fatal("cancelled sweep reported no error")
		}
		if n == 0 {
			t.Fatal("nothing emitted before cancel took effect")
		}
	})
}
