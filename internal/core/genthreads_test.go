package core

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/workload"
)

// runGen builds, warms, and measures one system at the given gen-thread
// count, returning its measured Metrics. Prewarm + WarmFunctional + Run
// is the full production sequence, so both the warm-up ring path and the
// timed ring path are exercised.
func runGen(t *testing.T, kind Kind, spec workload.Spec, genThreads int) Metrics {
	t.Helper()
	cfg := quickConfig(kind)
	cfg.GenThreads = genThreads
	sys := NewSystem(cfg, []workload.Spec{spec})
	defer sys.Close()
	sys.Prewarm()
	sys.WarmFunctional(20000)
	m := sys.Run(2000, 10000)
	if msg := sys.CheckInvariants(); msg != "" {
		t.Fatalf("kind=%v gen-threads=%d: invariant violated: %s", kind, genThreads, msg)
	}
	return m
}

// TestGenThreadsBitIdentical is the serial-vs-ring differential at the
// system level: the full warm-up + timed run must produce identical
// Metrics (every counter, every core) at every gen-thread count —
// off-thread generation may only change which host thread runs the
// generator, never the simulation (DESIGN.md §12).
func TestGenThreadsBitIdentical(t *testing.T) {
	for _, kind := range []Kind{Baseline, SILO} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			want := runGen(t, kind, workload.DataServing(), 0)
			for _, gen := range []int{1, 3} {
				got := runGen(t, kind, workload.DataServing(), gen)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gen-threads=%d metrics diverge from synchronous path:\ngot  %+v\nwant %+v", gen, got, want)
				}
			}
		})
	}
}

// TestGenThreadsCloseReleasesProducers pins producer shutdown at the
// System level: after Close (double Close included), no producer
// goroutine survives, whether the system ran or was abandoned right
// after warm-up.
func TestGenThreadsCloseReleasesProducers(t *testing.T) {
	base := runtime.NumGoroutine()
	cfg := quickConfig(SILO)
	cfg.GenThreads = 2

	sys := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	sys.WarmFunctional(5000)
	sys.Run(1000, 2000)
	sys.Close()
	sys.Close() // idempotent

	abandoned := NewSystem(cfg, []workload.Spec{workload.WebSearch()})
	abandoned.WarmFunctional(5000) // budgeted producers join inside
	abandoned.Close()              // no timed producers started: no-op

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("producer goroutines leaked after Close\n%s", buf[:n])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
