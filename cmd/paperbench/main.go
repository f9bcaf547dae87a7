// Command paperbench regenerates the paper's evaluation and runs
// cell-grid sweeps. Each mode is a subcommand with its own flags:
//
//	paperbench figures [-full] [-only fig10]          every table and figure (quick mode by default)
//	paperbench grid -spec SPEC [-out FILE]            stream a cell grid as JSON lines
//	paperbench serve -addr :9377 -spec SPEC           coordinate a distributed grid sweep
//	paperbench worker -url http://host:9377           run a coordinator's cells
//	paperbench checkpoint-ls -checkpoint-dir DIR      list warm-state checkpoints
//	paperbench checkpoint-gc -checkpoint-dir DIR -days N
//	paperbench record-trace -out FILE [-workload W]   record an RPT1 workload trace
//	paperbench mask-wall-ms < in.jsonl > out.jsonl    zero wall_ms for byte comparison
//
// `paperbench <subcommand> -h` lists a subcommand's flags. A flag that
// belongs to another subcommand is a usage error (exit 2), as is a value
// outside a flag's range. grid streams one JSON-lines record per cell —
// aggregate IPC, per-window IPC distribution with t-based confidence
// intervals, hit rates — in deterministic enumeration order at any
// -parallel level; the spec syntax is documented with its parser in
// internal/experiments/gridspec.go. Host performance is measured by the
// perfbench program (perfbench/README.md), not here.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/robust"
	"repro/internal/sim"
)

// cliConfig holds every flag value. Each subcommand's FlagSet binds only
// the fields its run path reads.
type cliConfig struct {
	// Host group: every simulating subcommand.
	parallel      int
	checkpointDir string // also checkpoint-ls and checkpoint-gc
	cpuprofile    string
	memprofile    string

	full bool   // figures, grid, serve
	only string // figures

	// Sweep group: grid and serve.
	spec         string
	windows      int
	confidence   float64
	out          string // also record-trace
	journal      string // also worker
	resume       bool
	cellDeadline time.Duration
	retries      int
	retryBackoff time.Duration
	onError      string

	// serve
	addr         string
	leaseTTL     time.Duration
	leaseCells   int
	soloAfter    time.Duration
	resumeShards string

	// worker
	url        string
	id         string
	maxOffline time.Duration

	// record-trace
	workload string
	ops      int

	days int // checkpoint-gc
}

// subcommand is one mode: its flags, the flags it cannot run without,
// and its run path.
type subcommand struct {
	name, synopsis string
	flags          func(*flag.FlagSet, *cliConfig)
	required       []string
	run            func(*cliConfig) int
}

var subcommands = []subcommand{
	{"figures", "regenerate the paper's tables and figures (quick mode unless -full)", func(fs *flag.FlagSet, c *cliConfig) {
		modeFlags(fs, c)
		fs.StringVar(&c.only, "only", "", "run a single experiment (fig1, fig2, fig3, fig4, fig7, fig8, table1, fig10, fig11, fig12, fig13, fig14, fig15, table6, fig16)")
	}, nil, simulating(runFigures)},
	{"grid", "stream a (system x workload x override) cell grid as JSON lines", sweepFlags, []string{"spec"}, simulating(runGrid)},
	{"serve", "coordinate a distributed grid sweep: hand cells to workers as leases (DESIGN.md §13)", func(fs *flag.FlagSet, c *cliConfig) {
		sweepFlags(fs, c)
		fs.StringVar(&c.addr, "addr", "", "listen address (e.g. :9377); output is byte-identical to a single-process grid run")
		boundedVar(fs, &c.leaseTTL, "lease-ttl", 10*time.Second, true, "lease lifetime without a heartbeat or report; an expired lease's cells are reassigned to surviving workers")
		boundedVar(fs, &c.leaseCells, "lease-cells", 1, true, "cells handed out per lease")
		fs.DurationVar(&c.soloAfter, "solo-after", 0, "finish remaining cells in-process when no worker has been heard from for this long (0 = 4x lease-ttl, negative = never)")
		fs.StringVar(&c.resumeShards, "resume-shards", "", "with -resume: comma-separated worker shard journals to merge into the resume set (salvage from crashed workers)")
	}, []string{"spec", "addr"}, simulating(runServe)},
	{"worker", "join a serve coordinator, lease cells and stream records back", func(fs *flag.FlagSet, c *cliConfig) {
		hostFlags(fs, c)
		fs.StringVar(&c.url, "url", "", "coordinator URL (e.g. http://host:9377); the grid and failure policy come from the coordinator")
		fs.StringVar(&c.id, "id", "", "identity used in leases and logs (default host:pid)")
		fs.StringVar(&c.journal, "journal", "", "keep a shard journal of completed cells here: a restarted worker skips them, and the coordinator's -resume-shards salvages them")
		boundedVar(fs, &c.maxOffline, "max-offline", 2*time.Minute, true, "give up after the coordinator has been unreachable this long")
	}, []string{"url"}, simulating(runWorker)},
	{"checkpoint-ls", "list a checkpoint directory (key, size, age, header metadata)", func(fs *flag.FlagSet, c *cliConfig) {
		fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "the warm-state checkpoint directory")
	}, []string{"checkpoint-dir"}, func(c *cliConfig) int { return runCheckpointLS(c.checkpointDir) }},
	{"checkpoint-gc", "prune old, stale-format or corrupt checkpoints from a directory", func(fs *flag.FlagSet, c *cliConfig) {
		fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "the warm-state checkpoint directory")
		boundedVar(fs, &c.days, "days", 0, false, "prune checkpoints older than this many days (0 prunes everything)")
	}, []string{"checkpoint-dir", "days"}, func(c *cliConfig) int { return runCheckpointGC(c.checkpointDir, c.days) }},
	{"record-trace", "record a workload address trace (RPT1) for scenario replay", func(fs *flag.FlagSet, c *cliConfig) {
		fs.StringVar(&c.out, "out", "", "trace file, written atomically; the recording is core 0 of a 1-core stream at scale 16, seed 1, so replays are reproducible from the flag values alone")
		fs.StringVar(&c.workload, "workload", "WebSearch", "workload preset to record (scale-out, enterprise and SPEC CPU2006 names)")
		boundedVar(fs, &c.ops, "ops", 200000, true, "number of ops to record")
	}, []string{"out"}, runRecordTrace},
	{"mask-wall-ms", `filter stdin to stdout zeroing every "wall_ms" field — the normalizer for byte-comparing grid outputs`,
		func(*flag.FlagSet, *cliConfig) {}, nil, func(*cliConfig) int { return runMaskWallMS(os.Stdin, os.Stdout) }},
}

func main() {
	// Work happens in run() so the profile-flushing defers execute before
	// os.Exit.
	os.Exit(run(os.Args[1:]))
}

// run dispatches args[0] to its subcommand and parses the rest with
// that subcommand's FlagSet: an unknown subcommand, a flag it does not
// own, a value out of range, a stray argument or a missing required
// flag exits 2 before any work starts.
func run(args []string) int {
	i := -1
	if len(args) > 0 {
		i = slices.IndexFunc(subcommands, func(cmd subcommand) bool { return cmd.name == args[0] })
	}
	if i < 0 {
		usage(args)
		return 2
	}
	cmd := subcommands[i]
	var c cliConfig
	fs := flag.NewFlagSet("paperbench "+cmd.name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: paperbench %s [flags]\n%s\n", cmd.name, cmd.synopsis)
		fs.PrintDefaults()
	}
	cmd.flags(fs, &c)
	if err := fs.Parse(args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "paperbench %s: unexpected argument %q\n", cmd.name, fs.Arg(0))
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range cmd.required {
		if !set[name] {
			fmt.Fprintf(os.Stderr, "paperbench %s: missing required flag -%s\n", cmd.name, name)
			fs.Usage()
			return 2
		}
	}
	return cmd.run(&c)
}

// usage reports that args name no subcommand and lists the subcommands.
func usage(args []string) {
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "paperbench: unknown subcommand %q\n", args[0])
	}
	fmt.Fprintln(os.Stderr, "usage: paperbench <subcommand> [flags]; paperbench <subcommand> -h lists its flags\n\nsubcommands:")
	for _, cmd := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-14s %s\n", cmd.name, cmd.synopsis)
	}
}

// hostFlags registers the host-layout knobs every simulating subcommand
// takes. None of them changes a result (DESIGN.md §11).
func hostFlags(fs *flag.FlagSet, c *cliConfig) {
	boundedVar(fs, &c.parallel, "parallel", 0, false, "experiment worker pool size (0 = all cores, 1 = sequential)")
	fs.StringVar(&c.checkpointDir, "checkpoint-dir", "", "restore warmed systems from this directory when a matching warm-state checkpoint exists, and save one after every cold warm-up (DESIGN.md §11); results are bit-identical either way")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a CPU profile to this file (pprof evidence for perf PRs)")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a heap profile to this file on exit")
}

// modeFlags is the host group plus -full: the subcommands that choose
// their own measurement windows (a worker takes the coordinator's).
func modeFlags(fs *flag.FlagSet, c *cliConfig) {
	hostFlags(fs, c)
	fs.BoolVar(&c.full, "full", false, "use paper-scale measurement windows")
}

// sweepFlags is what grid and serve share: the grid, its statistics,
// failure policy, journal and output file, all read by gridSetup and
// writeSweep.
func sweepFlags(fs *flag.FlagSet, c *cliConfig) {
	modeFlags(fs, c)
	fs.StringVar(&c.spec, "spec", "", `the grid, e.g. "systems=Baseline,SILO;workloads=WebSearch,DataServing;overrides=scale=64|llc_mb=64"; a scenarios=FILE axis (DESIGN.md §14) runs declarative scenario specs`)
	fs.IntVar(&c.windows, "windows", 0, "measurement windows per cell (the CI sample count; 0 = default)")
	fs.Float64Var(&c.confidence, "confidence", 0, "confidence level for the per-cell IPC interval (0 = 0.95)")
	fs.StringVar(&c.out, "out", "", "write the JSON lines to this file atomically (temp file + rename on completion) instead of stdout")
	fs.StringVar(&c.journal, "journal", "", "append each completed cell to this crash-safe journal (fsync'd JSON lines keyed by a content hash of the cell + mode + code version)")
	fs.BoolVar(&c.resume, "resume", false, "with -journal: skip cells already in the journal, re-emitting their records — a killed sweep continues where it stopped")
	boundedVar(fs, &c.cellDeadline, "cell-deadline", 0, true, "per-cell wall-clock watchdog; a cell exceeding it is recorded as timed out (unset = no deadline)")
	boundedVar(fs, &c.retries, "retries", 0, false, "deterministic re-attempts for a panicked or timed-out cell before it counts as permanently failed")
	boundedVar(fs, &c.retryBackoff, "retry-backoff", 500*time.Millisecond, true, "base of the capped exponential retry backoff (doubles per retry, capped at 30s)")
	fs.StringVar(&c.onError, "on-error", "fail", "fail = abort the sweep on the first permanently failed cell; skip = record a structured error for it and continue")
}

// bounded is an int or duration flag that rejects a negative value at
// parse time, and zero too when positive is set. Defaults are not
// checked, so a zero default can still mean "off" (-cell-deadline).
type bounded[T int | time.Duration] struct {
	p        *T
	positive bool
}

// boundedVar registers a bounded flag on fs with *p defaulting to value.
func boundedVar[T int | time.Duration](fs *flag.FlagSet, p *T, name string, value T, positive bool, usage string) {
	*p = value
	fs.Var(bounded[T]{p, positive}, name, usage)
}

func (b bounded[T]) String() string {
	if b.p == nil { // the zero Value the flag package probes for defaults
		return fmt.Sprint(T(0))
	}
	return fmt.Sprint(*b.p)
}

func (b bounded[T]) Set(s string) error {
	var v T
	var err error
	switch p := any(&v).(type) {
	case *int:
		var n int64
		n, err = strconv.ParseInt(s, 0, strconv.IntSize)
		*p = int(n)
	case *time.Duration:
		*p, err = time.ParseDuration(s)
	}
	switch {
	case err != nil:
		return err
	case v < 0:
		return errors.New("must not be negative")
	case v == 0 && b.positive:
		return errors.New("must be positive")
	}
	*b.p = v
	return nil
}

// simulating wraps a simulating subcommand: it starts the -cpuprofile
// and -memprofile captures, builds the experiment mode from the host
// flags and -full, and reports checkpoint use on the way out.
func simulating(run func(*cliConfig, experiments.Mode) int) func(*cliConfig) int {
	return func(c *cliConfig) int {
		if c.cpuprofile != "" {
			f, err := os.Create(c.cpuprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
				return 1
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if c.memprofile != "" {
			defer func() {
				f, err := os.Create(c.memprofile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				}
			}()
		}

		mode := experiments.Quick()
		if c.full {
			mode = experiments.Full()
		}
		mode.Parallelism = c.parallel
		var ckptStats experiments.CheckpointStats
		if c.checkpointDir != "" {
			mode.CheckpointDir = c.checkpointDir
			mode.Checkpoints = &ckptStats
			defer func() {
				fmt.Fprintf(os.Stderr, "[checkpoint: restored %d, cold %d, saved %d (%d save errors) in %s]\n",
					ckptStats.Hits.Load(), ckptStats.Misses.Load(), ckptStats.Saves.Load(), ckptStats.SaveErrs.Load(), c.checkpointDir)
			}()
		}
		return run(c, mode)
	}
}

// runFigures prints every table and figure of the evaluation, or the
// one -only names.
func runFigures(c *cliConfig, mode experiments.Mode) int {
	runners := []struct {
		name string
		fn   func() string
	}{
		{"fig1", func() string { return experiments.Fig1(mode).String() }},
		{"fig2", func() string { return experiments.Fig2(mode).String() }},
		{"fig3", func() string { return experiments.Fig3(mode).String() }},
		{"fig4", func() string { return experiments.Fig4(mode).String() }},
		{"fig7", experiments.Fig7String},
		{"fig8", func() string { return experiments.Fig8().String() }},
		{"table1", experiments.Table1String},
		{"fig10", func() string { return experiments.Fig10(mode).String() }},
		{"fig11", func() string { return experiments.Fig11(mode).String() }},
		{"fig12", func() string { return experiments.Fig12(mode).String() }},
		{"fig13", func() string { return experiments.Fig13(mode).String() }},
		{"fig14", func() string { return experiments.Fig14(mode).String() }},
		{"fig15", func() string { return experiments.Fig15(mode).String() }},
		{"table6", func() string { return experiments.Table6(mode).String() }},
		{"fig16", func() string { return experiments.Fig16(mode).String() }},
	}

	matched := false
	for _, r := range runners {
		if c.only != "" && !strings.EqualFold(c.only, r.name) {
			continue
		}
		matched = true
		start := time.Now()
		out := r.fn()
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[%s took %v]\n\n", r.name, time.Since(start).Round(time.Millisecond))
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", c.only)
		return 2
	}
	return 0
}

// runGrid is batch mode with the fault-tolerance layer: per-cell
// isolation (-on-error), retry/backoff (-retries), watchdog
// (-cell-deadline), crash-safe journal + resume (-journal/-resume),
// SIGINT/SIGTERM graceful shutdown, and atomic output (-out).
func runGrid(c *cliConfig, mode experiments.Mode) int {
	g, opts, code := gridSetup(c, mode, "grid")
	if code != 0 {
		return code
	}
	if opts.Journal != nil {
		defer opts.Journal.Close()
	}
	return writeSweep(c, "grid", g.Cells(), func(ctx context.Context, emit func(experiments.GridCellResult) bool) error {
		return experiments.RunGrid(ctx, g, mode, opts, nil, emit)
	}, nil)
}

// gridSetup is the set-up grid and serve share: it checks the sweep
// flags, compiles the grid, and builds the sweep's options, opening
// -journal — cleared for a fresh sweep, read back under -resume. tag
// prefixes its diagnostics. A nonzero code is the exit status to stop
// with; otherwise the caller owns opts.Journal.
func gridSetup(c *cliConfig, mode experiments.Mode, tag string) (g experiments.GridSpec, opts experiments.GridOptions, code int) {
	if c.confidence != 0 && (c.confidence <= 0 || c.confidence >= 1) {
		fmt.Fprintf(os.Stderr, "%s: -confidence %v outside (0,1) — e.g. 0.95, not a percentage\n", tag, c.confidence)
		return g, opts, 2
	}
	if c.windows < 0 || sim.Cycle(c.windows) > mode.MeasureCycles {
		fmt.Fprintf(os.Stderr, "%s: -windows %d outside [0, %d] (each window needs at least one of the mode's %d measure cycles)\n",
			tag, c.windows, mode.MeasureCycles, mode.MeasureCycles)
		return g, opts, 2
	}
	policy, err := robust.ParseFailPolicy(c.onError)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: -on-error: %v\n", tag, err)
		return g, opts, 2
	}
	if c.resume && c.journal == "" {
		fmt.Fprintf(os.Stderr, "%s: -resume needs -journal <file> (the journal is what a resumed sweep reads)\n", tag)
		return g, opts, 2
	}
	g, err = experiments.ParseGridSpec(c.spec, c.windows, c.confidence)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
		return g, opts, 2
	}

	opts = experiments.GridOptions{
		OnError:      policy,
		Retries:      c.retries,
		Backoff:      robust.Backoff{Base: c.retryBackoff, Cap: 30 * time.Second},
		CellDeadline: c.cellDeadline,
		Resume:       c.resume,
	}
	if c.journal == "" {
		return g, opts, 0
	}
	j, err := robust.OpenJournal(c.journal)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
		return g, opts, 1
	}
	if c.resume {
		if d := j.DroppedBytes(); d > 0 {
			fmt.Fprintf(os.Stderr, "[%s: journal %s: dropped %d bytes of torn tail]\n", tag, c.journal, d)
		}
		fmt.Fprintf(os.Stderr, "[%s: resuming — %d journaled cell(s)]\n", tag, j.Len())
	} else if err := j.Clear(); err != nil {
		// Without -resume the sweep starts fresh; stale entries must
		// not linger (they would match on an identical re-run).
		j.Close()
		fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
		return g, opts, 1
	}
	opts.Journal = j
	return g, opts, 0
}

// writeSweep runs one sweep of cells records through run and writes
// them as JSON lines to stdout or, with -out, through writeFileAtomic,
// so a crash never leaves a truncated output under the real name.
// SIGINT/SIGTERM cancel run's context — workers stop claiming cells,
// in-flight cells drain (and journal), emitted output stands — and exit
// 130 with a resume hint. On success it prints a summary on stderr,
// with detail() (nil for none) after the elapsed time, and returns 0.
func writeSweep(c *cliConfig, tag string, cells int, run func(context.Context, func(experiments.GridCellResult) bool) error, detail func() string) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	emitted, failed := 0, 0
	sweep := func(w io.Writer) error {
		enc := json.NewEncoder(w)
		var encErr error
		err := run(ctx, func(r experiments.GridCellResult) bool {
			if encErr = enc.Encode(r); encErr != nil {
				return false
			}
			emitted++
			if r.Error != nil {
				failed++
			}
			return true
		})
		if encErr != nil {
			return encErr
		}
		return err
	}
	var err error
	if c.out == "" {
		err = sweep(os.Stdout)
	} else {
		err = writeFileAtomic(c.out, sweep)
	}
	if errors.Is(err, context.Canceled) {
		hint := ""
		if c.journal != "" {
			hint = fmt.Sprintf("; journaled progress survives — rerun with -journal %s -resume", c.journal)
		}
		fmt.Fprintf(os.Stderr, "%s: interrupted after %d of %d cells%s\n", tag, emitted, cells, hint)
		return 130
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", tag, err)
		return 1
	}
	note := ""
	if detail != nil {
		note = detail()
	}
	if failed > 0 {
		note += fmt.Sprintf(", %d failed (structured error records)", failed)
	}
	fmt.Fprintf(os.Stderr, "[%s: %d cells in %v%s]\n", tag, cells, time.Since(start).Round(time.Millisecond), note)
	return 0
}
