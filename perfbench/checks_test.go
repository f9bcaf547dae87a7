package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

func metricsWith(retired uint64) core.Metrics {
	return core.Metrics{Kind: core.SILO, Cycles: 1000, Retired: retired,
		PerCoreRetired: []uint64{retired / 2, retired - retired/2},
		Stats:          core.Stats{LLCAccesses: 70, LocalHits: 50, RemoteHits: 10, Misses: 10, Forwards: 3}}
}

func TestDiffMetricsRejectsAnyChangedCounter(t *testing.T) {
	base := metricsWith(100)
	if d := diffMetrics(base, metricsWith(100)); d != "" {
		t.Fatalf("identical windows differ: %s", d)
	}
	for name, perturb := range map[string]func(*core.Metrics){
		"Retired":           func(m *core.Metrics) { m.Retired++ },
		"PerCoreRetired[1]": func(m *core.Metrics) { m.PerCoreRetired[1]++ },
		"Stats.Forwards":    func(m *core.Metrics) { m.Stats.Forwards++ },
		"Stats.Upgrades":    func(m *core.Metrics) { m.Stats.Upgrades = 1 },
		"Cycles":            func(m *core.Metrics) { m.Cycles-- },
	} {
		m := metricsWith(100)
		perturb(&m)
		if d := diffMetrics(base, m); !strings.HasPrefix(d, name) {
			t.Errorf("changed %s: diff %q", name, d)
		}
	}
	want := []core.Metrics{metricsWith(1), metricsWith(2)}
	got := []core.Metrics{metricsWith(1), metricsWith(2)}
	got[1].Stats.Invalidations++
	if d := diffSpans(want, got); !strings.HasPrefix(d, "sub-span 1: Stats.Invalidations") {
		t.Errorf("diffSpans = %q", d)
	}
	if d := diffSpans(want, want[:1]); d == "" {
		t.Error("a missing sub-span passed")
	}
}

// The checker compares every op with the run's first, and a restored op's
// first sub-span with the cold system's.
func TestCellCheckerRejectsDivergentOps(t *testing.T) {
	op := cellOp{spans: []core.Metrics{metricsWith(10), metricsWith(20)}}
	chk := &cellChecker{}
	if err := chk.check(op); err != nil {
		t.Fatal(err)
	}
	if err := chk.check(op); err != nil {
		t.Fatalf("identical repetition rejected: %v", err)
	}
	bad := cellOp{spans: []core.Metrics{metricsWith(10), metricsWith(21)}}
	if err := chk.check(bad); err == nil {
		t.Error("repetition with a changed counter passed")
	}
	cold := metricsWith(10)
	cold.Stats.DirAccesses = 1
	if err := (&cellChecker{coldSpan: &cold}).check(op); err == nil {
		t.Error("restored first span differing from the cold system's passed")
	}
}

func fig10Result(silo float64) experiments.CompareResult {
	return experiments.CompareResult{
		Systems:   []string{"Baseline", "SILO"},
		Workloads: []string{"WebSearch"},
		Norm:      [][]float64{{1, silo}},
		Geomean:   []float64{1, silo},
	}
}

func TestCheckGeomeanRejectsOneFlippedBit(t *testing.T) {
	if err := checkGeomean(fig10Result(pinnedSILOGeomean)); err != nil {
		t.Fatalf("pinned value rejected: %v", err)
	}
	flipped := math.Float64frombits(math.Float64bits(pinnedSILOGeomean) ^ 1)
	if err := checkGeomean(fig10Result(flipped)); err == nil {
		t.Error("geomean with its lowest bit flipped passed")
	}
	r := fig10Result(pinnedSILOGeomean)
	r.Systems[1] = "SILO-CO"
	if err := checkGeomean(r); err == nil {
		t.Error("result without a SILO column passed")
	}
	a, b := fig10Result(pinnedSILOGeomean), fig10Result(pinnedSILOGeomean)
	if d := diffCompare(a, b); d != "" {
		t.Errorf("identical suites differ: %s", d)
	}
	b.Norm[0][1] = flipped
	if d := diffCompare(a, b); d == "" {
		t.Error("suite with one flipped cell bit passed")
	}
}

// A checkpoint that fails to decode fails the restore with an error; the
// restore never falls back to building the system cold.
func TestRestoreRejectsTruncatedCheckpoint(t *testing.T) {
	cfg := core.SILOConfig(4)
	cfg.Scale = 64
	cs := cellSpec{cfg: cfg, specs: []workload.Spec{workload.WebSearch()}, warmInstr: 2000}
	cold := core.NewSystem(cs.cfg, cs.specs)
	cold.Prewarm()
	cold.WarmFunctional(cs.warmInstr)
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	key := experiments.CheckpointKey(cs.cfg, cs.specs, cs.warmInstr)
	if err := checkpoint.Save(path, key, "test", cold.Checkpoint); err != nil {
		t.Fatal(err)
	}
	cs.ckpt = &ckptFile{path: path, key: key}

	var sys *core.System
	if err := restoreCell(cs, nil, hostCounts, &sys); err != nil || sys == nil {
		t.Fatalf("intact checkpoint: %v", err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	sys = nil
	if err := restoreCell(cs, nil, hostCounts, &sys); err == nil || sys != nil {
		t.Errorf("truncated checkpoint: err %v, system %v", err, sys != nil)
	}
	cs.ckpt.key = "another key"
	if err := restoreCell(cs, nil, hostCounts, &sys); err == nil {
		t.Error("checkpoint under a foreign key restored")
	}
}
