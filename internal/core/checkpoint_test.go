package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
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

// imageGolden pins the SHA-256 of the checkpoint image (key "golden",
// meta "{}") each system below saves. The restore differentials save and
// restore with one binary, so they cannot see a layout change; this test
// can. Any change of the on-disk layout — a field added, dropped,
// reordered or resized — must bump checkpoint.FormatVersion, after which
// these constants are regenerated from the new failure messages.
var imageGolden = map[string]string{
	"Baseline-4":      "f69ce5a91fc70abd5970fa9c0a26cbfc13dba01479ef471dc199e5eb095d46f4",
	"BaselineDRAM-4":  "9486dd50415aa65f3d86e4190e8409c70d92a84c11a02d7d195a7de7c8a7fcfd",
	"Baseline-32":     "968e19ac2331b5467bb117e3f4436854bf2745cb78ba50c378c36a66105fd249",
	"SILO-4":          "1749414f329e26fc8257966126ce2db13cd5526d4322df7ed4a97f07f35f0b9d",
	"SILO-4-L2":       "0010765d0fdc046966ef459cf02c8367cbc9de2cd02fda67fd3de9f0d73f6438",
	"SILO-32":         "788e0a7290ac902d68e914c400c9582cdf214c3c667e056d5baf4a383b56eeae",
	"VaultsShared-4":  "93ae89333a621da539624caaa7c9d04d27c98f36ef8640e2cbe9a235da797d19",
	"SILOCO-4":        "1367f3617a553cdc9421fd8103c59a7ac3530ed42f6339e5bd28d60bdf204f15",
	"scenario-SILO-4": "81090b10e3e02c6abff47b82f0603ab247c07e3cecce70d9a3ab4e1a1688093f",
}

// TestCheckpointImageGolden guards the byte format: every
// checkpointTestConfigs system, plus a scenario of phased streams and a
// trace replay, must save exactly the image the pinned hash names.
func TestCheckpointImageGolden(t *testing.T) {
	builds := map[string]func() *System{}
	for name, cfg := range checkpointTestConfigs() {
		builds[name] = func() *System { return warmSystem(cfg, []workload.Spec{workload.WebSearch()}) }
	}
	builds["scenario-SILO-4"] = func() *System {
		cfg := SILOConfig(4)
		cfg.Scale = 256
		sys := NewSystemFromSources(cfg, scenarioSources(cfg))
		sys.Prewarm()
		sys.WarmFunctional(diffWarmInstr)
		return sys
	}
	dir := t.TempDir()
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".ckpt")
			if err := checkpoint.Save(path, "golden", "{}", build().Checkpoint); err != nil {
				t.Fatalf("save: %v", err)
			}
			img, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(img)
			if got := hex.EncodeToString(sum[:]); got != imageGolden[name] {
				t.Errorf("image of %d bytes has sha256 %s, pinned %s: a layout change needs a checkpoint.FormatVersion bump",
					len(img), got, imageGolden[name])
			}
		})
	}
}

// fuzzConfigs are FuzzCheckpointRestore's restore targets, one per
// hierarchy family, each small enough that its warmed image is about
// 12 KB.
func fuzzConfigs() []Config {
	base, silo := BaselineConfig(4), SILOConfig(4)
	base.Scale, silo.Scale = 256, 65536
	return []Config{base, silo}
}

// FuzzCheckpointRestore feeds arbitrary bytes to the restore path: each
// input is written as a checkpoint file, opened, and restored into both
// fuzzConfigs systems. Every restore must end in an error or in a system
// whose invariants hold, and none may panic. The seeds are the warmed
// images of both configs.
func FuzzCheckpointRestore(f *testing.F) {
	specs := []workload.Spec{workload.WebSearch()}
	dir := f.TempDir()
	for i, cfg := range fuzzConfigs() {
		path := filepath.Join(dir, fmt.Sprintf("seed%d.ckpt", i))
		if err := checkpoint.Save(path, "fuzz", "{}", warmSystem(cfg, specs).Checkpoint); err != nil {
			f.Fatal(err)
		}
		r, err := checkpoint.Open(path, "fuzz")
		if err != nil {
			f.Fatal(err)
		}
		_, err = NewSystemFromCheckpoint(cfg, specs, r)
		r.Close()
		if err != nil {
			f.Fatalf("seed %d does not restore: %v", i, err)
		}
		img, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
	}
	path := filepath.Join(dir, "input.ckpt")
	f.Fuzz(func(t *testing.T, img []byte) {
		if err := os.WriteFile(path, img, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, cfg := range fuzzConfigs() {
			r, err := checkpoint.Open(path, "")
			if err != nil {
				return // the header alone is rejected, whatever the config
			}
			sys, err := NewSystemFromCheckpoint(cfg, specs, r)
			r.Close()
			if err != nil {
				continue
			}
			if msg := sys.CheckInvariants(); msg != "" {
				t.Fatalf("%v restored with broken invariants: %s", cfg.Kind, msg)
			}
		}
	})
}
