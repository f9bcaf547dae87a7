package main

import (
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/workload"
)

// cellSpec is one simulated system and how a measured op brings it up:
// a cold build (NewSystem, Prewarm, WarmFunctional) or, when ckpt is set,
// a restore of the checkpoint cut during preparation. The timed phase is
// a fixed simulated span of spans x spanCycles, so every op and every run
// times the same simulated work.
type cellSpec struct {
	cfg       core.Config
	specs     []workload.Spec
	warmInstr int
	spans     int
	ckpt      *ckptFile
}

// ckptFile locates a checkpoint and the content key it was saved under.
type ckptFile struct{ path, key string }

// cellOp is what one measured op observed.
type cellOp struct {
	setup, total time.Duration
	wall         []time.Duration // per timed sub-span
	spans        []core.Metrics  // per timed sub-span
	peakMB       float64
	tableSetup   int // coherence line-table entries after set-up
	tableEnd     int
	bytesPerSlot int
}

func (op cellOp) mips() float64 {
	retired := make([]uint64, len(op.spans))
	for i, m := range op.spans {
		retired[i] = m.Retired
	}
	return spanRate(retired, op.wall)
}

// totalMetrics sums the sub-span windows into one window over the timed phase.
func totalMetrics(spans []core.Metrics) core.Metrics {
	var t core.Metrics
	for i, m := range spans {
		if i == 0 {
			t.Kind = m.Kind
			t.PerCoreRetired = make([]uint64, len(m.PerCoreRetired))
		}
		t.Cycles += m.Cycles
		t.Retired += m.Retired
		for c, r := range m.PerCoreRetired {
			t.PerCoreRetired[c] += r
		}
		addStats(&t.Stats, m.Stats)
	}
	return t
}

func addStats(dst *core.Stats, s core.Stats) {
	dst.LLCAccesses += s.LLCAccesses
	dst.LocalHits += s.LocalHits
	dst.RemoteHits += s.RemoteHits
	dst.Misses += s.Misses
	dst.Reads += s.Reads
	dst.WritesPrivate += s.WritesPrivate
	dst.WritesRWShared += s.WritesRWShared
	dst.MemAccesses += s.MemAccesses
	dst.MemWritebacks += s.MemWritebacks
	dst.VaultAccesses += s.VaultAccesses
	dst.DRAMCacheHits += s.DRAMCacheHits
	dst.Invalidations += s.Invalidations
	dst.Forwards += s.Forwards
	dst.DirAccesses += s.DirAccesses
	dst.Upgrades += s.Upgrades
}

// simProbe reads a span's counters from the system under test, once it
// exists, plus the instructions its cores have retired so far.
func simProbe(sys **core.System, retired *uint64) func() counts {
	return func() counts {
		c := hostCounts()
		if s := *sys; s != nil {
			c.Events = s.Engine().Executed()
			c.Table, _ = s.LineTable()
		}
		c.Retired = *retired
		return c
	}
}

// runCell performs one measured op: set-up, the fixed timed phase, and
// the invariant check. root names the op's enclosing span. Peak RSS is
// reset first, so it covers this op alone. A panic anywhere in the
// simulator fails the op rather than the run.
func runCell(cs cellSpec, root string, tr *tracer) (op cellOp, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	releaseMemory()
	if err := resetPeakRSS(); err != nil {
		return op, err
	}
	var sys *core.System
	defer func() {
		if sys != nil {
			sys.Close()
		}
	}()
	var retired uint64
	probe := simProbe(&sys, &retired)
	t0 := time.Now()
	tr.do(root, probe, func() {
		tr.do("setup", probe, func() { err = setUp(cs, tr, probe, &sys) })
		if err != nil {
			return
		}
		op.setup = time.Since(t0)
		op.tableSetup, op.bytesPerSlot = sys.LineTable()
		tr.do("timed", probe, func() {
			op.spans, op.wall = timedPhase(sys, cs.spans, tr, probe, &retired)
		})
		op.total = time.Since(t0)
	})
	if err != nil {
		return op, err
	}
	if op.peakMB, err = peakRSSMB(); err != nil {
		return op, err
	}
	op.tableEnd, _ = sys.LineTable()
	if msg := sys.CheckInvariants(); msg != "" {
		return op, fmt.Errorf("invariant violation: %s", msg)
	}
	return op, nil
}

// setUp brings a system to the warmed, not-yet-started state, storing it
// in *sys as soon as it exists so the span probes can read it.
func setUp(cs cellSpec, tr *tracer, probe func() counts, sys **core.System) error {
	if cs.ckpt != nil {
		return restoreCell(cs, tr, probe, sys)
	}
	tr.do("core.NewSystem", probe, func() { *sys = core.NewSystem(cs.cfg, cs.specs) })
	tr.do("System.Prewarm", probe, (*sys).Prewarm)
	tr.do("System.WarmFunctional", probe, func() { (*sys).WarmFunctional(cs.warmInstr) })
	return nil
}

// restoreCell is the restore set-up: it never falls back to a cold build,
// so a checkpoint that fails to open or decode fails the op.
func restoreCell(cs cellSpec, tr *tracer, probe func() counts, sys **core.System) error {
	var r *checkpoint.Reader
	var err error
	tr.do("checkpoint.Open", probe, func() { r, err = checkpoint.Open(cs.ckpt.path, cs.ckpt.key) })
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	defer r.Close()
	tr.do("core.NewSystemFromCheckpoint", probe, func() {
		*sys, err = core.NewSystemFromCheckpoint(cs.cfg, cs.specs, r)
	})
	if err != nil {
		return fmt.Errorf("restore: %w", err)
	}
	return nil
}

// timedPhase runs n sub-spans of spanCycles through System.Run and returns
// each one's window and wall time.
func timedPhase(sys *core.System, n int, tr *tracer, probe func() counts, retired *uint64) ([]core.Metrics, []time.Duration) {
	spans := make([]core.Metrics, n)
	wall := make([]time.Duration, n)
	for i := range spans {
		tr.do("System.Run", probe, func() {
			t := time.Now()
			spans[i] = sys.Run(0, spanCycles)
			wall[i] = time.Since(t)
			*retired += spans[i].Retired
		})
	}
	return spans, wall
}
