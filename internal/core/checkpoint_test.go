package core

import (
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/workload"
)

// checkpointTestConfigs covers both hierarchy families and every store
// shape the checkpoint can carry: shared LLC with snoop filter
// (quotient store at ≤16 cores, open full-key table at 32), shared +
// DRAM cache, private vaults with MOESI directory, and the shared-vault
// hybrid.
func checkpointTestConfigs() map[string]Config {
	shrink := func(c Config) Config {
		c.Scale = 256 // keep footprints tiny; geometry floors apply
		return c
	}
	return map[string]Config{
		"Baseline-4":     shrink(BaselineConfig(4)),
		"BaselineDRAM-4": shrink(BaselineDRAMConfig(4)),
		"Baseline-32":    shrink(BaselineConfig(32)), // open-table snoop filter
		"SILO-4":         shrink(SILOConfig(4)),
		"SILO-4-L2":      shrink(SILOConfig(4).WithL2()),
		"SILO-32":        shrink(SILOConfig(32)), // open-table directory
		"VaultsShared-4": shrink(VaultsSharedConfig(4)),
		"SILOCO-4":       shrink(SILOCOConfig(4)),
	}
}

const (
	diffWarmInstr = 30_000
	diffWarmCyc   = 3_000
	diffMeasCyc   = 12_000
)

func warmSystem(cfg Config, specs []workload.Spec) *System {
	sys := NewSystem(cfg, specs)
	sys.Prewarm()
	sys.WarmFunctional(diffWarmInstr)
	return sys
}

// TestCheckpointRestoreDifferential is the determinism proof: a system
// restored from a checkpoint must produce bit-identical metrics to the
// from-scratch system it was cut from, for every hierarchy family and
// line-store shape. Run under -race in CI.
func TestCheckpointRestoreDifferential(t *testing.T) {
	specs := []workload.Spec{workload.WebSearch()}
	dir := t.TempDir()
	for name, cfg := range checkpointTestConfigs() {
		t.Run(name, func(t *testing.T) {
			// From-scratch reference.
			fresh := warmSystem(cfg, specs)
			wantMet := fresh.Run(diffWarmCyc, diffMeasCyc)
			if msg := fresh.CheckInvariants(); msg != "" {
				t.Fatalf("fresh invariants: %s", msg)
			}

			// Checkpoint a second warm build, restore, run.
			warmed := warmSystem(cfg, specs)
			path := filepath.Join(dir, name+".ckpt")
			if err := checkpoint.Save(path, "test-key", "{}", warmed.Checkpoint); err != nil {
				t.Fatalf("save: %v", err)
			}
			r, err := checkpoint.Open(path, "test-key")
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			restored, err := NewSystemFromCheckpoint(cfg, specs, r)
			r.Close()
			if err != nil {
				t.Fatalf("restore: %v", err)
			}
			gotMet := restored.Run(diffWarmCyc, diffMeasCyc)
			if msg := restored.CheckInvariants(); msg != "" {
				t.Fatalf("restored invariants: %s", msg)
			}
			if !reflect.DeepEqual(wantMet, gotMet) {
				t.Fatalf("restored metrics diverge:\nfresh:    %+v\nrestored: %+v", wantMet, gotMet)
			}
			fe, fb := fresh.LineTable()
			re, rb := restored.LineTable()
			if fe != re || fb != rb {
				t.Fatalf("line table diverges: fresh %d entries/%d B, restored %d/%d", fe, fb, re, rb)
			}
		})
	}
}

// TestCheckpointWindowedDifferential proves the windowed-statistics
// path is also bit-identical after restore (grid cells consume
// StreamWindows, not Run).
func TestCheckpointWindowedDifferential(t *testing.T) {
	specs := []workload.Spec{workload.DataServing()}
	cfg := SILOConfig(4)
	cfg.Scale = 256
	dir := t.TempDir()

	fresh := warmSystem(cfg, specs)
	want := fresh.StreamWindows(diffWarmCyc, 2_000)
	var wantW []Metrics
	for i := 0; i < 4; i++ {
		m := *want.Next()
		m.PerCoreRetired = append([]uint64(nil), m.PerCoreRetired...)
		wantW = append(wantW, m)
	}

	warmed := warmSystem(cfg, specs)
	path := filepath.Join(dir, "windows.ckpt")
	if err := checkpoint.Save(path, "k", "{}", warmed.Checkpoint); err != nil {
		t.Fatalf("save: %v", err)
	}
	r, err := checkpoint.Open(path, "k")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	restored, err := NewSystemFromCheckpoint(cfg, specs, r)
	r.Close()
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := restored.StreamWindows(diffWarmCyc, 2_000)
	for i, w := range wantW {
		g := *got.Next()
		g.PerCoreRetired = append([]uint64(nil), g.PerCoreRetired...)
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("window %d diverges:\nfresh:    %+v\nrestored: %+v", i, w, g)
		}
	}
}

// TestCheckpointStartedSystemRejected: the checkpoint cut is strictly
// pre-Run.
func TestCheckpointStartedSystemRejected(t *testing.T) {
	cfg := BaselineConfig(4)
	cfg.Scale = 256
	sys := warmSystem(cfg, []workload.Spec{workload.WebSearch()})
	sys.Run(500, 1_000)
	err := checkpoint.Save(filepath.Join(t.TempDir(), "x.ckpt"), "k", "{}", sys.Checkpoint)
	if err == nil {
		t.Fatal("checkpointing a started system must fail")
	}
}

// TestCheckpointWrongConfigRejected: restoring into a system whose
// geometry differs from the checkpoint is an error (the caller then
// rebuilds cold), never a silent misload.
func TestCheckpointWrongConfigRejected(t *testing.T) {
	specs := []workload.Spec{workload.WebSearch()}
	cfg := SILOConfig(4)
	cfg.Scale = 256
	sys := warmSystem(cfg, specs)
	path := filepath.Join(t.TempDir(), "x.ckpt")
	if err := checkpoint.Save(path, "k", "{}", sys.Checkpoint); err != nil {
		t.Fatal(err)
	}
	for name, other := range map[string]Config{
		"kind":  func() Config { c := BaselineConfig(4); c.Scale = 256; return c }(),
		"cores": func() Config { c := SILOConfig(8); c.Scale = 256; return c }(),
		"scale": func() Config { c := SILOConfig(4); c.Scale = 512; return c }(),
	} {
		r, err := checkpoint.Open(path, "k")
		if err != nil {
			t.Fatal(err)
		}
		_, err = NewSystemFromCheckpoint(other, specs, r)
		r.Close()
		if err == nil {
			t.Fatalf("%s mismatch accepted", name)
		}
	}
}

// TestCheckpointRestoreAllocation: restore decodes every fixed-size slab
// in place, so NewSystemFromCheckpoint allocates what NewSystem does plus
// the one slab whose length is data — the warmed line table — and no
// second copy of the vault arrays.
func TestCheckpointRestoreAllocation(t *testing.T) {
	cfg := SILOConfig(16)
	cfg.Scale = 32
	specs := []workload.Spec{workload.WebSearch()}
	warmed := warmSystem(cfg, specs)
	path := filepath.Join(t.TempDir(), "silo16.ckpt")
	if err := checkpoint.Save(path, "k", "{}", warmed.Checkpoint); err != nil {
		t.Fatal(err)
	}
	// This warm-up leaves about 462k directory entries in a quotient
	// table of 1M 8-byte slots.
	entries, perSlot := warmed.LineTable()
	lineTableSlab := uint64(1<<20) * uint64(perSlot)
	if entries <= 3<<20/8 || entries > 3<<20/4 {
		t.Fatalf("line table holds %d entries; the 1M-slot slab assumption needs 393k-786k", entries)
	}

	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	build := allocated(func() { NewSystem(cfg, specs) })
	r, err := checkpoint.Open(path, "k")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	restore := allocated(func() { _, err = NewSystemFromCheckpoint(cfg, specs, r) })
	if err != nil {
		t.Fatal(err)
	}
	if limit := build + lineTableSlab + 1<<20; restore > limit {
		t.Fatalf("restore allocated %d bytes, want at most %d (NewSystem %d + line table %d + 1 MiB)",
			restore, limit, build, lineTableSlab)
	}
}
