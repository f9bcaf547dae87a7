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

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/coherence"
	"repro/internal/mem"
	"repro/internal/workload"
)

// checkpointTestConfigs covers both hierarchy families and every store
// shape the checkpoint can carry: shared LLC with snoop filter
// (quotient store at ≤16 cores, open full-key table at 32), shared +
// DRAM cache, private vaults whose slots carry the MOESI directory
// state (4 and 32 cores), and the shared-vault hybrid.
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
		"SILO-32":        shrink(SILOConfig(32)), // 32-core sharer masks
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

// TestCheckpointRejectsImpossibleVaultStates: SILO's vault slots carry
// the directory's coherence state, so a corrupt checkpoint can name
// states no run produces — a state outside S/E/O/M, two owners of one
// line, an E or M owner beside a sharer, O under MESI. Each case saves a
// warmed SILO system with one of them patched into its vault slots and
// restores the image: the restore must fail or CheckInvariants must
// report the state, and neither may panic.
func TestCheckpointRejectsImpossibleVaultStates(t *testing.T) {
	specs := []workload.Spec{workload.WebSearch()}
	// soleLine finds a line vault 0 holds and no other vault does.
	soleLine := func(h *privateHierarchy) (line mem.LineAddr) {
		found := false
		h.vaultArr[0].ForEach(func(l mem.LineAddr, _ cache.State) {
			if found {
				return
			}
			for _, v := range h.vaultArr[1:] {
				if v.Contains(l) {
					return
				}
			}
			line, found = l, true
		})
		if !found {
			t.Fatal("no line is held by vault 0 alone")
		}
		return line
	}
	// sharedLine finds a line at least two vaults hold, all in S.
	sharedLine := func(h *privateHierarchy) (line mem.LineAddr, holders []int) {
		h.vaultArr[0].ForEach(func(l mem.LineAddr, _ cache.State) {
			if holders != nil {
				return
			}
			var hs []int
			for c := range h.vaultArr {
				if st := h.dir.StateOf(l, c); st == cache.Shared {
					hs = append(hs, c)
				} else if st.Valid() {
					return
				}
			}
			if len(hs) >= 2 {
				line, holders = l, hs
			}
		})
		if holders == nil {
			t.Fatal("no line is shared by two vaults")
		}
		return line, holders
	}
	set := func(h *privateHierarchy, c int, line mem.LineAddr, st cache.State) {
		v := h.vaultArr[c]
		v.SetStateWay(v.Probe(line), st)
	}
	for name, tc := range map[string]struct {
		protocol coherence.Protocol
		patch    func(h *privateHierarchy)
	}{
		"state 5 alone": {coherence.MOESI, func(h *privateHierarchy) {
			set(h, 0, soleLine(h), cache.State(5))
		}},
		"state 7 shared": {coherence.MOESI, func(h *privateHierarchy) {
			line, hs := sharedLine(h)
			set(h, hs[1], line, cache.State(7))
		}},
		"two owners": {coherence.MOESI, func(h *privateHierarchy) {
			line, hs := sharedLine(h)
			set(h, hs[0], line, cache.Owned)
			set(h, hs[1], line, cache.Owned)
		}},
		"E owner beside a sharer": {coherence.MOESI, func(h *privateHierarchy) {
			line, hs := sharedLine(h)
			set(h, hs[0], line, cache.Exclusive)
		}},
		"M owner beside a sharer": {coherence.MOESI, func(h *privateHierarchy) {
			line, hs := sharedLine(h)
			set(h, hs[1], line, cache.Modified)
		}},
		"O under MESI": {coherence.MESI, func(h *privateHierarchy) {
			line, hs := sharedLine(h)
			set(h, hs[0], line, cache.Owned)
		}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := SILOConfig(4)
			cfg.Scale, cfg.Protocol = 256, tc.protocol
			sys := warmSystem(cfg, specs)
			tc.patch(sys.hier.(*privateHierarchy))
			path := filepath.Join(t.TempDir(), "patched.ckpt")
			if err := checkpoint.Save(path, "k", "{}", sys.Checkpoint); err != nil {
				t.Fatalf("save: %v", err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panic: %v", p)
				}
			}()
			r, err := checkpoint.Open(path, "k")
			if err != nil {
				t.Fatal(err)
			}
			restored, err := NewSystemFromCheckpoint(cfg, specs, r)
			r.Close()
			if err != nil {
				return
			}
			if msg := restored.CheckInvariants(); msg == "" {
				t.Fatal("restored the patched image with no invariant violation reported")
			} else {
				t.Logf("reported: %s", msg)
			}
		})
	}
}

// TestCheckpointRestoreAllocation: restore decodes every fixed-size slab
// in place, and a SILO system has no slab whose length is data (its
// directory is the vault slots), so NewSystemFromCheckpoint allocates
// what NewSystem does, with no second copy of the vault arrays and no
// line table.
func TestCheckpointRestoreAllocation(t *testing.T) {
	cfg := SILOConfig(16)
	cfg.Scale = 32
	specs := []workload.Spec{workload.WebSearch()}
	warmed := warmSystem(cfg, specs)
	path := filepath.Join(t.TempDir(), "silo16.ckpt")
	if err := checkpoint.Save(path, "k", "{}", warmed.Checkpoint); err != nil {
		t.Fatal(err)
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
	if limit := build + 1<<20; restore > limit {
		t.Fatalf("restore allocated %d bytes, want at most %d (NewSystem %d + 1 MiB)", restore, limit, build)
	}
}

// imageGolden pins the SHA-256 of the checkpoint image (key "golden",
// meta "{}") each system below saves. The restore differentials save and
// restore with one binary, so they cannot see a layout change; this test
// can. Any change of the on-disk layout — a field added, dropped,
// reordered or resized — must bump checkpoint.FormatVersion, after which
// these constants are regenerated from the new failure messages.
var imageGolden = map[string]string{
	"Baseline-4":      "dc5a274a24065f9286f09b6dbee5ca33100f0e77a6a1a97dcf51f83a7aae73e2",
	"BaselineDRAM-4":  "1c424b2851f98826252459205fdcdf2f2832de8b310fb1925c3618a6c2aa491c",
	"Baseline-32":     "62b0f6f905629bdbe2cd3a40b1a18268f4ef2fc69046acf51e976e788b52df30",
	"SILO-4":          "94da851293c036d094deadfed03d4c14170312b7ffdd59e50d692211fe028c0f",
	"SILO-4-L2":       "9a8a2a0934f93bfdc4be55716bd93300afd70bc748bfe8be9b06f346afbc7ee9",
	"SILO-32":         "ab3a0531235a672315c86c55939117e478f907bf0b86347e9cc66d244b6090db",
	"VaultsShared-4":  "ce6427bfb220d3741583513ec9f20a293c79b106be2fc5bb23fb05940298b234",
	"SILOCO-4":        "f0494f725054997bc6403916a93aa95885d4b9d362ee9d2e1757b3eb45c262fc",
	"scenario-SILO-4": "4bd4a9373972da6eb1afb577d2a6de4997369e23663e7a037f3006ee93b72ee6",
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
