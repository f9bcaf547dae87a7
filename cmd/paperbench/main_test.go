package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
)

// checkpoint-gc must refuse while another process (here: another
// goroutine's shared lock, same flock semantics) is mid-restore on the
// shared directory, leaving every checkpoint in place — the directed
// test for the concurrent-reader guard. After the reader releases, the
// same GC pass prunes normally.
func TestCheckpointGCRefusesWhileDirInUse(t *testing.T) {
	dir := t.TempDir()
	// A fake stale checkpoint: bad header, so an unguarded GC would
	// prune it unconditionally.
	path := filepath.Join(dir, "deadbeef.ckpt")
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}

	oldWait := gcLockWait
	gcLockWait = 200 * time.Millisecond
	defer func() { gcLockWait = oldWait }()

	unlock, err := checkpoint.LockDirShared(dir)
	if err != nil {
		t.Fatal(err)
	}
	if code := runCheckpointGC(dir, 0); code == 0 {
		t.Fatal("gc succeeded while a restore held the directory lock")
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("refused gc still removed the checkpoint: %v", err)
	}

	unlock()
	if code := runCheckpointGC(dir, 0); code != 0 {
		t.Fatalf("gc after release exited %d", code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("gc after release left the stale checkpoint behind")
	}
}

func TestParseGridSpec(t *testing.T) {
	g, err := experiments.ParseGridSpec("systems=Baseline,SILO,vaults-sh;workloads=WebSearch,DataServing,SATSolver;overrides=-|scale=64,llc_mb=64", 4, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Systems) != 3 || len(g.Workloads) != 3 || len(g.Overrides) != 2 {
		t.Fatalf("axes = %d/%d/%d, want 3/3/2", len(g.Systems), len(g.Workloads), len(g.Overrides))
	}
	if g.Cells() != 18 {
		t.Fatalf("Cells() = %d, want 18", g.Cells())
	}
	if g.Windows != 4 || g.Confidence != 0.99 {
		t.Fatalf("windows/confidence = %d/%v", g.Windows, g.Confidence)
	}
	if g.Systems[2].Kind != core.VaultsShared {
		t.Fatalf("vaults-sh resolved to %v", g.Systems[2].Kind)
	}
	if g.Overrides[0].Name != "-" || g.Overrides[1].Name != "scale=64,llc_mb=64" {
		t.Fatalf("override names = %q, %q", g.Overrides[0].Name, g.Overrides[1].Name)
	}
	cfg := core.BaselineConfig(16)
	g.Overrides[1].Apply(&cfg)
	if cfg.Scale != 64 || cfg.LLCSize != 64<<20 {
		t.Fatalf("override application: scale=%d llc=%d", cfg.Scale, cfg.LLCSize)
	}
}

func TestParseGridSpecErrors(t *testing.T) {
	cases := []struct {
		arg, wantErr string
	}{
		{"workloads=WebSearch", "needs at least"},
		{"systems=Baseline", "needs at least"},
		{"systems=NoSuch;workloads=WebSearch", "unknown system"},
		{"systems=Baseline;workloads=NoSuch", "unknown workload"},
		{"systems=Baseline;workloads=WebSearch;overrides=frobnicate=1", "unknown key"},
		{"systems=Baseline;workloads=WebSearch;overrides=scale=-3", "scale wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=l2=maybe", "l2 wants true or false"},
		{"systems=Baseline;workloads=WebSearch;overrides=protocol=mosi", "protocol wants"},
		{"systems=Baseline;workloads=WebSearch;bogus", "not axis=values"},
		{"colors=red;systems=Baseline;workloads=WebSearch", "unknown grid axis"},
		// Parse-time hardening: duplicate keys and out-of-domain values
		// fail before any cell simulates, naming the key.
		{"systems=Baseline;workloads=WebSearch;overrides=scale=8,scale=16", "key scale given twice"},
		{"systems=Baseline;workloads=WebSearch;overrides=llc_mb=9999999999999", "llc_mb wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=cores=0", "cores wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;overrides=vault_ways=1000000", "vault_ways wants an integer in [1,"},
		{"systems=Baseline;workloads=WebSearch;systems=SILO", `axis "systems" given twice`},
		{"systems=Baseline;scenarios=/nonexistent/spec.yaml", "no such file"},
	}
	for _, c := range cases {
		if _, err := experiments.ParseGridSpec(c.arg, 0, 0); err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("ParseGridSpec(%q) error = %v, want containing %q", c.arg, err, c.wantErr)
		}
	}
}

// Every override key must be accepted and mutate the config it names.
func TestParseOverrideKeys(t *testing.T) {
	ov, err := experiments.ParseOverride("scale=8,cores=4,seed=7,llc_mb=64,llc_ways=8,llc_extra=5,rwmult=2,vault_mb=512,vault_ways=4,l2=true,protocol=mesi")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.SILOConfig(16)
	ov.Apply(&cfg)
	if cfg.Scale != 8 || cfg.Cores != 4 || cfg.Seed != 7 ||
		cfg.LLCSize != 64<<20 || cfg.LLCWays != 8 || cfg.LLCExtraLatency != 5 ||
		cfg.RWSharedMult != 2 || cfg.VaultCapacity != 512<<20 || cfg.VaultWays != 4 ||
		cfg.L2Size == 0 {
		t.Fatalf("override did not land: %+v", cfg)
	}
	off, err := experiments.ParseOverride("l2=false")
	if err != nil {
		t.Fatal(err)
	}
	off.Apply(&cfg)
	if cfg.L2Size != 0 {
		t.Fatalf("l2=false left L2Size=%d", cfg.L2Size)
	}
}

// grid and serve share one sweep-flag check: a negative window count,
// or more windows than the mode has measure cycles, is a usage error
// (exit 2) in both modes, reported before anything listens or
// simulates.
func TestGridWindowsCheckedInBothModes(t *testing.T) {
	mode := experiments.Quick()
	for _, runMode := range []func(*cliConfig, experiments.Mode) int{runGrid, runServe} {
		for _, windows := range []int{-1, int(mode.MeasureCycles) + 1} {
			c := cliConfig{
				spec:      "systems=Baseline;workloads=WebSearch",
				windows:   windows,
				onError:   "fail",
				addr:      "127.0.0.1:0",
				leaseTTL:  200 * time.Millisecond,
				soloAfter: time.Millisecond,
			}
			code, stderr := captureStderr(t, func() int { return runMode(&c, mode) })
			if code != 2 || !strings.Contains(stderr, "-windows") {
				t.Errorf("windows=%d: exit %d, stderr %q; want exit 2 naming -windows", windows, code, stderr)
			}
		}
	}
}

// Each subcommand parses only its own flags: a flag another subcommand
// owns, or one no subcommand has any more (-gen-threads), is a usage
// error naming that flag, raised before any work. The last four rows mix
// modes the way a shared FlagSet would accept while silently ignoring
// the flags the chosen mode does not read.
func TestForeignFlagRejected(t *testing.T) {
	for _, c := range []struct {
		args    []string
		foreign string
	}{
		{[]string{"figures", "-spec", "systems=SILO;workloads=WebSearch"}, "-spec"},
		{[]string{"grid", "-spec", "systems=SILO;workloads=WebSearch", "-addr", ":0"}, "-addr"},
		{[]string{"serve", "-url", "http://x"}, "-url"},
		{[]string{"worker", "-url", "http://x", "-full"}, "-full"},
		{[]string{"checkpoint-gc", "-checkpoint-dir", "ck", "-days", "1", "-parallel", "2"}, "-parallel"},
		{[]string{"record-trace", "-out", "t.rpt", "-journal", "j.jl"}, "-journal"},
		{[]string{"grid", "-gen-threads", "0"}, "-gen-threads"},
		{[]string{"mask-wall-ms", "-checkpoint-dir", "ck"}, "-checkpoint-dir"},
		{[]string{"checkpoint-ls", "-checkpoint-dir", "ck", "-days", "0"}, "-days"},
		{[]string{"figures", "-only", "table1", "-journal", "j.jl", "-windows", "4", "-resume"}, "-journal"},
		{[]string{"record-trace", "-out", "t.rpt", "-ops", "10", "-spec", "bogus", "-full", "-parallel", "3"}, "-spec"},
		{[]string{"mask-wall-ms", "-out", "out.jsonl", "-only", "fig99", "-url", "http://x"}, "-out"},
	} {
		code, stderr := captureStderr(t, func() int { return run(c.args) })
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+c.foreign) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", c.args, code, stderr, c.foreign)
		}
	}
}

// Every bounded flag refuses an out-of-range value at parse time.
func TestBoundedFlagRejected(t *testing.T) {
	for _, args := range [][]string{
		{"grid", "-parallel", "-1"},
		{"grid", "-retries", "-1"},
		{"grid", "-cell-deadline", "0"},
		{"serve", "-retry-backoff", "-5ms"},
		{"serve", "-lease-ttl", "0s"},
		{"serve", "-lease-cells", "0"},
		{"worker", "-max-offline", "0"},
		{"record-trace", "-ops", "0"},
		{"checkpoint-gc", "-days", "-1"},
		{"grid", "-parallel", "many"},
	} {
		code, stderr := captureStderr(t, func() int { return run(args) })
		if code != 2 || !strings.Contains(stderr, "invalid value") || !strings.Contains(stderr, args[1]) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 naming %s", args, code, stderr, args[1])
		}
	}
}

// Without a subcommand, with an unknown one, with a stray argument or
// without a flag the subcommand cannot run without, paperbench exits 2
// before any work; -h on any subcommand is a successful request.
func TestUsage(t *testing.T) {
	for _, args := range [][]string{nil, {"fig10"}, {"-only", "fig10"}} {
		code, stderr := captureStderr(t, func() int { return run(args) })
		if code != 2 {
			t.Errorf("%q: exit %d, want 2", args, code)
		}
		for _, cmd := range subcommands {
			if !strings.Contains(stderr, cmd.name) {
				t.Errorf("%q: usage does not list %s:\n%s", args, cmd.name, stderr)
			}
		}
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"figures", "fig10"}, `unexpected argument "fig10"`},
		{[]string{"grid"}, "missing required flag -spec"},
		{[]string{"serve", "-spec", "systems=SILO;workloads=WebSearch"}, "missing required flag -addr"},
		{[]string{"worker"}, "missing required flag -url"},
		{[]string{"checkpoint-ls"}, "missing required flag -checkpoint-dir"},
		{[]string{"checkpoint-gc", "-checkpoint-dir", "ck"}, "missing required flag -days"},
		{[]string{"record-trace"}, "missing required flag -out"},
	} {
		code, stderr := captureStderr(t, func() int { return run(c.args) })
		if code != 2 || !strings.Contains(stderr, c.want) {
			t.Errorf("%q: exit %d, stderr %q; want exit 2 with %q", c.args, code, stderr, c.want)
		}
	}
	for _, cmd := range subcommands {
		if code, _ := captureStderr(t, func() int { return run([]string{cmd.name, "-h"}) }); code != 0 {
			t.Errorf("%s -h: exit %d, want 0", cmd.name, code)
		}
	}
}

// captureStderr runs f with os.Stderr redirected to a temp file and
// returns f's result with everything it wrote there.
func captureStderr(t *testing.T, f func() int) (int, string) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	code := f()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return code, string(b)
}
