package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/workload"
)

func warmTestConfig() core.Config {
	cfg := core.SILOConfig(4)
	cfg.Scale = 256
	return cfg
}

const warmTestInstr = 20_000

// TestBuildWarmMissThenHit: the first build is a cold miss that saves a
// checkpoint; the second restores it; both systems measure identically.
func TestBuildWarmMissThenHit(t *testing.T) {
	dir := t.TempDir()
	cfg := warmTestConfig()
	specs := []workload.Spec{workload.WebSearch()}
	var cs CheckpointStats

	cold, restored := buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil)
	if restored {
		t.Fatal("first build reported a checkpoint hit")
	}
	if cs.Misses.Load() != 1 || cs.Saves.Load() != 1 || cs.SaveErrs.Load() != 0 {
		t.Fatalf("cold counters: %+v", counters(&cs))
	}
	path := CheckpointPath(dir, CheckpointKey(cfg, specs, warmTestInstr))
	if filepath.Ext(path) != ".ckpt" {
		t.Fatalf("checkpoint file %s must use the .ckpt extension", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("checkpoint file missing: %v", err)
	}

	warm, restored := buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil)
	if !restored {
		t.Fatal("second build did not restore")
	}
	if cs.Hits.Load() != 1 {
		t.Fatalf("hit counters: %+v", counters(&cs))
	}

	want := cold.Run(2_000, 8_000)
	got := warm.Run(2_000, 8_000)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored run diverges:\ncold:     %+v\nrestored: %+v", want, got)
	}
}

func counters(cs *CheckpointStats) [4]uint64 {
	return [4]uint64{cs.Hits.Load(), cs.Misses.Load(), cs.Saves.Load(), cs.SaveErrs.Load()}
}

// TestBuildWarmCorruptionFallback: a truncated file, a flipped byte, and
// a stale format version must each fall back to the from-scratch path
// (and overwrite the bad file) with identical measured output — never an
// error, never silently wrong state.
func TestBuildWarmCorruptionFallback(t *testing.T) {
	cfg := warmTestConfig()
	specs := []workload.Spec{workload.DataServing()}
	refSys, _ := buildWarm(cfg, specs, warmTestInstr, "", nil, nil)
	want := refSys.Run(2_000, 8_000)

	corrupt := map[string]func([]byte) []byte{
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"flipped-byte": func(b []byte) []byte { b[len(b)-64] ^= 0x10; return b },
		"stale-version": func(b []byte) []byte {
			b[len(checkpoint.Magic)] = checkpoint.FormatVersion + 1
			return b
		},
	}
	for name, mangle := range corrupt {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			var cs CheckpointStats
			buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil) // seed a valid checkpoint
			path := CheckpointPath(dir, CheckpointKey(cfg, specs, warmTestInstr))
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
				t.Fatal(err)
			}

			sys, restored := buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil)
			if restored {
				t.Fatal("corrupt checkpoint reported as hit")
			}
			if got := sys.Run(2_000, 8_000); !reflect.DeepEqual(want, got) {
				t.Fatalf("fallback run diverges:\nwant: %+v\ngot:  %+v", want, got)
			}
			if cs.Misses.Load() != 2 || cs.Saves.Load() != 2 {
				t.Fatalf("fallback counters: %+v", counters(&cs))
			}
			// The rebuild re-saved over the corrupt file; the next build hits.
			_, restored = buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil)
			if !restored {
				t.Fatal("re-saved checkpoint not restored")
			}
		})
	}
}

// TestCheckpointKeyNormalization: pure-timing config fields must not
// perturb the key (sweep cells share warm state), while anything that
// shapes warmed state must.
func TestCheckpointKeyNormalization(t *testing.T) {
	specs := []workload.Spec{workload.WebSearch()}
	base := warmTestConfig()
	key := CheckpointKey(base, specs, warmTestInstr)

	timingOnly := []func(*core.Config){
		func(c *core.Config) { c.LLCExtraLatency += 9 },
		func(c *core.Config) { c.RWSharedMult = 4 },
		func(c *core.Config) { c.L2Latency = 12 },
		func(c *core.Config) { c.LLCBankLatency += 2 },
		func(c *core.Config) { c.HopLatency += 1 },
		func(c *core.Config) { c.LLCFixedOverhead += 5 },
	}
	for i, mut := range timingOnly {
		c := base
		mut(&c)
		if CheckpointKey(c, specs, warmTestInstr) != key {
			t.Fatalf("timing-only mutation %d changed the key", i)
		}
	}

	stateBearing := []func(*core.Config){
		func(c *core.Config) { c.Scale = 512 },
		func(c *core.Config) { c.Seed ^= 1 },
		func(c *core.Config) { c.LLCSize *= 2 },
	}
	for i, mut := range stateBearing {
		c := base
		mut(&c)
		if CheckpointKey(c, specs, warmTestInstr) == key {
			t.Fatalf("state-bearing mutation %d did not change the key", i)
		}
	}
	if CheckpointKey(base, specs, warmTestInstr+1) == key {
		t.Fatal("warm-up length did not change the key")
	}
	if CheckpointKey(base, []workload.Spec{workload.DataServing()}, warmTestInstr) == key {
		t.Fatal("workload did not change the key")
	}
}

// TestBuildWarmSharesAcrossTimingCells proves the cross-cell win: a cell
// differing only in a swept latency restores the checkpoint a previous
// cell saved.
func TestBuildWarmSharesAcrossTimingCells(t *testing.T) {
	dir := t.TempDir()
	specs := []workload.Spec{workload.WebSearch()}
	var cs CheckpointStats

	cfg := warmTestConfig()
	buildWarm(cfg, specs, warmTestInstr, dir, &cs, nil)

	swept := cfg
	swept.LLCExtraLatency += 14 // a Fig 2-style latency point
	sys, restored := buildWarm(swept, specs, warmTestInstr, dir, &cs, nil)
	if !restored {
		t.Fatal("timing-swept cell did not share the checkpoint")
	}
	// The restored system must behave as a cold build of the swept config.
	coldSys, _ := buildWarm(swept, specs, warmTestInstr, "", nil, nil)
	want, got := coldSys.Run(2_000, 8_000), sys.Run(2_000, 8_000)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("shared-checkpoint run diverges:\nwant: %+v\ngot:  %+v", want, got)
	}
}

// TestGridWithCheckpointDirByteIdentical: a grid run with checkpointing
// enabled (both cold and fully-restored passes) emits records identical
// to the plain path in every field but WallMS.
func TestGridWithCheckpointDirByteIdentical(t *testing.T) {
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(4), core.SILOConfig(4)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Overrides: []Override{
			{Name: "lat+0", Apply: func(*core.Config) {}},
			{Name: "lat+9", Apply: func(c *core.Config) { c.LLCExtraLatency += 9 }},
		},
		Windows: 2,
	}
	m := Quick()
	m.Scale = 256
	m.WarmInstr = warmTestInstr
	m.MeasureCycles = 8_000
	want := collectGrid(t, g, m)

	var cs CheckpointStats
	m.CheckpointDir = t.TempDir()
	m.Checkpoints = &cs
	coldPass := collectGrid(t, g, m)
	warmPass := collectGrid(t, g, m)
	if cs.Saves.Load() != 2 { // 2 systems x 1 workload; latency override shares
		t.Fatalf("expected 2 saved checkpoints, counters %+v", counters(&cs))
	}
	if cs.Hits.Load() != 2+4 { // cold pass shares 2, warm pass restores all 4
		t.Fatalf("expected 6 hits, counters %+v", counters(&cs))
	}
	for i := range want {
		for name, got := range map[string][]GridCellResult{"cold": coldPass, "warm": warmPass} {
			r := got[i]
			r.WallMS = want[i].WallMS
			if !reflect.DeepEqual(want[i], r) {
				t.Fatalf("%s pass record %d diverges:\nwant: %+v\ngot:  %+v", name, i, want[i], r)
			}
		}
	}
}
