package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/workload"
)

const (
	// wsWarmInstr is the Full-mode, paper-length functional warm-up.
	wsWarmInstr = 1_200_000
	// Every workload's timed phase is the same fixed simulated span: 100
	// equal sub-spans, enough for a p90 with ten sub-spans beyond it, of
	// 40k cycles (3 to 4 s of host time on the reference host).
	timedSpans = 100
	spanCycles = 40_000
	// minOps is the fewest measured ops a run takes, whatever --seconds
	// says: the repetitions check needs two, a median wants three.
	minOps = 3
	// minSuites is the fewest measured Fig 10 suites a run takes, after
	// the set-up suite. A suite's makespan depends on which worker draws
	// the last cells, so its median needs more samples than a cell's.
	minSuites = 6
)

// cores is the core count of every system the benchmark simulates, as it
// is of every Fig 10 system.
const cores = 16

// pinnedSILOGeomean is the Quick-mode Fig 10 SILO geomean at the presets'
// seed, bit for bit.
const pinnedSILOGeomean = 1.3196591383249325

var workloads = []struct {
	name string
	run  func(*runner, *result)
}{
	{"ws_silo_s4_cold", (*runner).wsS4Cold},
	{"ws_silo_s1_ckpt", (*runner).wsS1Ckpt},
	{"fig10_quick", (*runner).fig10Quick},
}

// wsCell is the system both ws_* workloads simulate: 16-core SILO running
// WebSearch, trace generation on the timing thread.
func wsCell(scale int64, seed uint64) cellSpec {
	cfg := core.SILOConfig(cores)
	cfg.Scale = scale
	cfg.Seed = seed
	cfg.GenThreads = 0
	return cellSpec{cfg: cfg, specs: []workload.Spec{workload.WebSearch()}, warmInstr: wsWarmInstr, spans: timedSpans}
}

func fig10Mode() experiments.Mode {
	m := experiments.Quick()
	m.Parallelism = 2
	return m
}

// fig10Cell is the suite's SILO/WebSearch cell, built the way the suite
// builds it (Quick mode, presets' seed), then run for cycles in
// spanCycles sub-spans.
func fig10Cell(cycles sim.Cycle) cellSpec {
	m := fig10Mode()
	cfg := core.SILOConfig(cores)
	cfg.Scale = m.Scale
	return cellSpec{cfg: cfg, specs: []workload.Spec{workload.WebSearch()}, warmInstr: m.WarmInstr,
		spans: int(cycles / spanCycles)}
}

// result collects one workload's samples, failures and, when traced,
// per-layer metrics.
type result struct {
	workload  string
	attempted int
	failures  []string
	samples   map[string][]float64 // per end-to-end metric
	layers    map[string]float64
	notes     []string // human-readable lines printed with the results
}

func (res *result) fail(format string, args ...any) {
	res.failures = append(res.failures, fmt.Sprintf(format, args...))
}

func (res *result) add(name string, v float64) { res.samples[name] = append(res.samples[name], v) }

func (res *result) note(format string, args ...any) {
	res.notes = append(res.notes, fmt.Sprintf(format, args...))
}

// cellChecker holds what later ops of a run are compared against: the
// first op's timed sub-spans, and for a restored cell the first sub-span
// of the cold system the checkpoint was cut from.
type cellChecker struct {
	first    []core.Metrics
	coldSpan *core.Metrics
}

func (c *cellChecker) check(op cellOp) error {
	if c.coldSpan != nil {
		if d := diffMetrics(*c.coldSpan, op.spans[0]); d != "" {
			return fmt.Errorf("restored first span differs from the cold system's: %s", d)
		}
	}
	if c.first == nil {
		c.first = op.spans
		return nil
	}
	if d := diffSpans(c.first, op.spans); d != "" {
		return fmt.Errorf("timed phase differs from the run's first op: %s", d)
	}
	return nil
}

// measureCells runs untraced ops of cs until budget is spent, and at
// least min of them. It stops at the first failure.
func measureCells(res *result, cs cellSpec, chk *cellChecker, root string, min int, budget time.Duration) []cellOp {
	var ops []cellOp
	var elapsed time.Duration
	for n := 0; n < min || elapsed < budget; n++ {
		res.attempted++
		op, err := runCell(cs, root, nil)
		if err == nil {
			err = chk.check(op)
		}
		if err != nil {
			res.fail("%s op %d: %v", root, n+1, err)
			return ops
		}
		elapsed += op.total
		ops = append(ops, op)
	}
	return ops
}

// tracedCell runs one traced op of cs, or none when untraced or after a
// failure.
func (r *runner) tracedCell(res *result, cs cellSpec, chk *cellChecker, root string) *cellOp {
	if r.tr == nil || len(res.failures) > 0 {
		return nil
	}
	res.attempted++
	op, err := runCell(cs, root, r.tr)
	if err == nil {
		err = chk.check(op)
	}
	if err != nil {
		res.fail("traced %s: %v", root, err)
		return nil
	}
	return &op
}

func addCellSamples(res *result, ops []cellOp) {
	for _, op := range ops {
		res.add("setup_s", op.setup.Seconds())
		res.add("sim_mips", op.mips())
		res.add("peak_rss_mb", op.peakMB)
		res.add("suite_s", op.total.Seconds())
	}
}

// wsS4Cold: a cold Scale-4 build, Prewarm and paper-length warm-up, then
// the fixed timed phase. Set-up is almost all Prewarm and WarmFunctional;
// the 3.7M-entry line table is past the host LLC.
func (r *runner) wsS4Cold(res *result) {
	cs := wsCell(4, r.seed)
	chk := &cellChecker{}
	ops := measureCells(res, cs, chk, "op", minOps, r.budget)
	addCellSamples(res, ops)
	if traced := r.tracedCell(res, cs, chk, "op"); traced != nil {
		r.cellLayers(res, cs, *traced, ops, layerPaths{root: "op", build: []string{"op", "setup"}})
	}
}

// wsS1Ckpt: the same system at Scale 1 (paper-scale 4 GB of vaults). A
// child process cuts the checkpoint, untimed; each measured op restores
// it and runs the fixed timed phase against a 14.8M-entry line table.
func (r *runner) wsS1Ckpt(res *result) {
	cs := wsCell(1, r.seed)
	path := filepath.Join(r.work, "ckpt", r.run+".ckpt")
	defer os.Remove(path)
	var prep prepResult
	var err error
	r.tr.do("prepare", hostCounts, func() {
		if prep, err = r.prepare(path); err == nil {
			r.tr.adopt(prep.Spans)
		}
	})
	if err != nil {
		res.attempted++
		res.fail("preparation: %v", err)
		return
	}
	res.note("  preparation: cold set-up %.3f s, checkpoint.Save %.3f s, image %.1f MB",
		prep.ColdSetupS, prep.SaveS, float64(prep.ImageBytes)/(1<<20))
	cs.ckpt = &ckptFile{path: path, key: experiments.CheckpointKey(cs.cfg, cs.specs, cs.warmInstr)}
	chk := &cellChecker{coldSpan: &prep.FirstSpan}
	ops := measureCells(res, cs, chk, "op", minOps, r.budget)
	addCellSamples(res, ops)
	if traced := r.tracedCell(res, cs, chk, "op"); traced != nil {
		r.cellLayers(res, cs, *traced, ops, layerPaths{root: "op", build: []string{"prepare", "setup"}, restore: true})
		res.layers["checkpoint.image_mb"] = float64(prep.ImageBytes) / (1 << 20)
		res.layers["checkpoint.restore_mb_per_s"] = res.layers["checkpoint.image_mb"] / res.layers["checkpoint.restore_s"]
	}
}

// fig10Quick: the Quick-mode Fig 10 suite, 5 systems x 5 scale-out
// workloads at Scale 32 on two workers. The suite has no set-up apart from
// its 25 cells' own builds, so the first suite of the process stands for
// it: it alone pays any one-time cost, and work moved out of the suite
// into one-time initialisation shows in setup_s. The suites after it are
// the measured part. One cell, or one cell's timed span, would not do:
// the cells are small enough to sit in the host LLC, where neighbours'
// traffic moved a lone cell's rate by 2x between runs.
func (r *runner) fig10Quick(res *result) {
	m := fig10Mode()
	var first *experiments.CompareResult
	res.attempted++
	s, err := runSuite(m, nil, &first)
	if err != nil {
		res.fail("set-up suite: %v", err)
		return
	}
	res.add("setup_s", s.wall.Seconds())
	var elapsed time.Duration
	for n := 0; n < minSuites || elapsed < r.budget; n++ {
		res.attempted++
		s, err := runSuite(m, nil, &first)
		if err != nil {
			res.fail("suite %d: %v", n+1, err)
			return
		}
		elapsed += s.wall
		res.add("suite_s", s.wall.Seconds())
		res.add("sim_mips", fig10WarmInstr(m, s.res)/s.wall.Seconds()/1e6)
	}
	// peak_rss_mb is one cell's, run alone the way the suite runs it: the
	// suite's own peak moves by a fifth with how GC cycles fall across its
	// two workers.
	for _, op := range measureCells(res, fig10Cell(m.WarmCycles+m.MeasureCycles), &cellChecker{}, "cell", minOps, 0) {
		res.add("peak_rss_mb", op.peakMB)
	}

	// The per-layer view of a cell comes from one traced cell timed over
	// the fixed span; the suite itself is one traced call.
	cs := fig10Cell(timedSpans * spanCycles)
	cell := r.tracedCell(res, cs, &cellChecker{}, "cell")
	if cell == nil {
		return
	}
	r.cellLayers(res, cs, *cell, nil, layerPaths{root: "cell", build: []string{"cell", "setup"}})
	res.attempted++
	if s, err = runSuite(m, r.tr, &first); err != nil {
		res.fail("traced suite: %v", err)
		return
	}
	suite := r.tr.lastAt("op")
	res.layers["experiments.cells"] = float64(len(s.res.Workloads) * len(s.res.Systems))
	res.layers["experiments.cpu_util"] = (suite.Finish.UserCPU + suite.Finish.SysCPU -
		suite.Begin.UserCPU - suite.Begin.SysCPU) / (suite.dur().Seconds() * float64(m.Parallelism))
	res.layers["experiments.silo_geomean_x"] = s.res.SpeedupOf("SILO")
	runtimeLayers(res.layers, "_suite", suite)
	res.layers["trace.overhead_pct"] = overheadPct(s.wall.Seconds(), res.samples["suite_s"])
}

// fig10WarmInstr is the functional warm-up a Fig 10 suite simulates:
// every core of every cell. fig10_quick's sim_mips is this per suite
// second, the rate at which the suite simulates. The instructions of the
// cells' short timed windows are not counted, since the suite does not
// report them.
func fig10WarmInstr(m experiments.Mode, r experiments.CompareResult) float64 {
	return float64(len(r.Workloads) * len(r.Systems) * cores * m.WarmInstr)
}

// suiteRun is one measured Fig 10 suite.
type suiteRun struct {
	wall time.Duration
	res  experiments.CompareResult
}

// runSuite runs one Fig 10 suite and checks it: the SILO geomean must
// carry the pinned bits, and every suite of the run must match the first.
func runSuite(m experiments.Mode, tr *tracer, first **experiments.CompareResult) (s suiteRun, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	releaseMemory()
	t := time.Now()
	tr.do("op", hostCounts, func() {
		tr.do("experiments.Fig10", hostCounts, func() { s.res = experiments.Fig10(m) })
	})
	s.wall = time.Since(t)
	if err := checkGeomean(s.res); err != nil {
		return s, err
	}
	if *first == nil {
		*first = &s.res
	} else if d := diffCompare(**first, s.res); d != "" {
		return s, fmt.Errorf("suite differs from the run's first: %s", d)
	}
	return s, nil
}

// prepResult is what the checkpoint-cutting child process reports.
type prepResult struct {
	ColdSetupS float64      `json:"cold_setup_s"`
	SaveS      float64      `json:"save_s"`
	ImageBytes int64        `json:"image_bytes"`
	FirstSpan  core.Metrics `json:"first_span"`
	Spans      []span       `json:"spans"`
}

// prepare cuts ws_silo_s1_ckpt's checkpoint in a child process, so the
// cold build's 1.4 GB never enters this process's peak RSS, and waits for
// it to exit.
func (r *runner) prepare(path string) (prepResult, error) {
	var p prepResult
	exe, err := os.Executable()
	if err != nil {
		return p, err
	}
	args := []string{"-prepare", path, "-seed", strconv.FormatUint(r.seed, 10), "-run", r.run}
	if r.tr != nil {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return p, fmt.Errorf("checkpoint child: %w", err)
	}
	if err := json.Unmarshal(out, &p); err != nil {
		return p, fmt.Errorf("checkpoint child output: %w", err)
	}
	return p, nil
}

// prepareMain is the child side of prepare: cold-build the Scale-1 cell,
// save its checkpoint to path, run the first timed sub-span on the cold
// system for the restore check, and print a prepResult.
func prepareMain(path string, seed uint64, run string, traced bool) error {
	cs := wsCell(1, seed)
	var tr *tracer
	if traced {
		tr = newTracer(run)
	}
	var p prepResult
	var sys *core.System
	var retired uint64
	probe := simProbe(&sys, &retired)
	t := time.Now()
	tr.do("setup", probe, func() { _ = setUp(cs, tr, probe, &sys) }) // a cold build cannot fail
	p.ColdSetupS = time.Since(t).Seconds()

	key := experiments.CheckpointKey(cs.cfg, cs.specs, cs.warmInstr)
	meta := fmt.Sprintf("perfbench ws_silo_s1_ckpt seed %d", seed)
	var err error
	t = time.Now()
	tr.do("checkpoint.Save", probe, func() { err = checkpoint.Save(path, key, meta, sys.Checkpoint) })
	p.SaveS = time.Since(t).Seconds()
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.ImageBytes = fi.Size()
	spans, _ := timedPhase(sys, 1, tr, probe, &retired)
	p.FirstSpan = spans[0]
	if msg := sys.CheckInvariants(); msg != "" {
		return fmt.Errorf("invariant violation: %s", msg)
	}
	if tr != nil {
		p.Spans = tr.spans
	}
	return json.NewEncoder(os.Stdout).Encode(p)
}

// layerPaths names the traced op's root span and the span holding the
// cold build: the op's own set-up, or the preparation's for a restored
// cell.
type layerPaths struct {
	root    string
	build   []string
	restore bool
}

// cellLayers derives the per-layer metrics of a traced cell op from its
// spans and windows, and regenerates its op streams to time the workload
// layer alone.
func (r *runner) cellLayers(res *result, cs cellSpec, op cellOp, untraced []cellOp, lp layerPaths) {
	L := res.layers
	tr := r.tr
	build := func(name string) span { return tr.lastAt(append(append([]string{}, lp.build...), name)...) }
	L["core.build_s"] = build("core.NewSystem").dur().Seconds()
	L["core.prewarm_s"] = build("System.Prewarm").dur().Seconds()
	warm := build("System.WarmFunctional")
	L["core.warm_s"] = warm.dur().Seconds()
	L["core.warm_mips"] = float64(cs.warmInstr*cs.cfg.Cores) / warm.dur().Seconds() / 1e6
	setup, timed, whole := tr.lastAt(lp.root, "setup"), tr.lastAt(lp.root, "timed"), tr.lastAt(lp.root)
	if lp.restore {
		L["core.cold_setup_s"] = tr.lastAt(lp.build...).dur().Seconds()
		L["checkpoint.save_s"] = tr.lastAt("prepare", "checkpoint.Save").dur().Seconds()
		L["checkpoint.restore_s"] = setup.dur().Seconds()
	}

	L["core.timed_s"] = timed.dur().Seconds()
	var spanMS []float64
	for _, s := range tr.children(timed) {
		spanMS = append(spanMS, float64(s.dur())/1e6)
	}
	L["core.span_ms_p50"] = percentile(spanMS, 0.5)
	L["core.span_ms_p90"] = percentile(spanMS, 0.9)
	L["core.spans"] = float64(len(spanMS))

	events := float64(timed.Finish.Events - timed.Begin.Events)
	instr := float64(timed.Finish.Retired - timed.Begin.Retired)
	L["sim.events_per_kinstr"] = events / instr * 1000
	L["sim.ns_per_event"] = float64(timed.dur()) / events

	mb := func(entries int) float64 { return float64(entries) * float64(op.bytesPerSlot) / (1 << 20) }
	L["coherence.table_entries_setup"] = float64(op.tableSetup)
	L["coherence.table_mb_setup"] = mb(op.tableSetup)
	L["coherence.table_mb_end"] = mb(op.tableEnd)
	modelLayers(L, totalMetrics(op.spans))

	runtimeLayers(L, "_setup", setup)
	runtimeLayers(L, "_timed", timed)
	if lp.root == "op" {
		runtimeLayers(L, "_suite", whole)
		totals := make([]float64, len(untraced))
		for i, u := range untraced {
			totals[i] = u.total.Seconds()
		}
		L["trace.overhead_pct"] = overheadPct(whole.dur().Seconds(), totals)
	}

	perCore := totalMetrics(op.spans).PerCoreRetired
	genWarm, genTimed, n := replayGen(cs, perCore, tr)
	L["workload.gen_ns_per_op"] = float64(genWarm+genTimed) / float64(n)
	L["workload.gen_share_warm"] = genWarm.Seconds() / warm.dur().Seconds()
	L["workload.gen_share_timed"] = genTimed.Seconds() / timed.dur().Seconds()
}

// modelLayers records the modelled hardware's counts over a timed phase,
// per thousand retired instructions where they are counts. A change that
// only touches host speed must leave every one identical.
func modelLayers(L map[string]float64, m core.Metrics) {
	kinstr := float64(m.Retired) / 1000
	st := m.Stats
	L["cpu.ipc"] = m.IPC()
	L["cache.llc_accesses_pki"] = float64(st.LLCAccesses) / kinstr
	L["cache.llc_hit_rate"] = m.LLCHitRate()
	L["cache.remote_hit_frac"] = float64(st.RemoteHits) / float64(st.LLCAccesses)
	L["vault.accesses_pki"] = float64(st.VaultAccesses) / kinstr
	L["memctl.reads_pki"] = float64(st.MemAccesses) / kinstr
	L["memctl.writebacks_pki"] = float64(st.MemWritebacks) / kinstr
	L["coherence.dir_accesses_pki"] = float64(st.DirAccesses) / kinstr
	L["coherence.forwards_pki"] = float64(st.Forwards) / kinstr
	L["coherence.invalidations_pki"] = float64(st.Invalidations) / kinstr
}

// runtimeLayers records the Go runtime's and the kernel's view of one
// phase span.
func runtimeLayers(L map[string]float64, suffix string, s span) {
	b, f := s.Begin, s.Finish
	L["runtime.alloc_mb"+suffix] = float64(f.AllocB-b.AllocB) / (1 << 20)
	L["runtime.live_heap_mb"+suffix] = float64(f.LiveHeapB) / (1 << 20)
	L["runtime.gc_cycles"+suffix] = float64(f.GCCycles - b.GCCycles)
	L["runtime.gc_cpu_s"+suffix] = f.GCCPU - b.GCCPU
	L["runtime.minflt"+suffix] = float64(f.MinFlt - b.MinFlt)
	L["runtime.sys_cpu_s"+suffix] = f.SysCPU - b.SysCPU
}

// overheadPct compares a traced op's wall time with the median of the
// same op untraced.
func overheadPct(traced float64, untraced []float64) float64 {
	med := summarize(untraced).Median
	if med == 0 {
		return math.NaN()
	}
	return (traced/med - 1) * 100
}

// replayGen times the workload layer alone: fresh streams regenerate,
// through NextBatch in the cores' 16-op refills, the ops the traced cell
// consumed — warmInstr per core for the functional warm-up, then each
// core's retired count of the timed phase. It returns both segments'
// wall times and the ops generated.
func replayGen(cs cellSpec, timedPerCore []uint64, tr *tracer) (warm, timed time.Duration, ops uint64) {
	const batch = 16
	ncores := cs.cfg.Cores
	streams := make([]*workload.Stream, ncores)
	for c := range streams {
		streams[c] = workload.NewStream(cs.specs[0], c, ncores, cs.cfg.Scale, cs.cfg.Seed)
	}
	var buf [batch]workload.Op
	gen := func(c int, n uint64) {
		for n > 0 {
			k := uint64(batch)
			if n < k {
				k = n
			}
			streams[c].NextBatch(buf[:k])
			n -= k
		}
	}
	t := time.Now()
	tr.do("workload.NextBatch:warm", hostCounts, func() {
		for c := 0; c < ncores; c++ {
			gen(c, uint64(cs.warmInstr))
		}
	})
	warm = time.Since(t)
	t = time.Now()
	tr.do("workload.NextBatch:timed", hostCounts, func() {
		for c := 0; c < ncores; c++ {
			gen(c, timedPerCore[c])
		}
	})
	timed = time.Since(t)
	ops = uint64(cs.warmInstr * ncores)
	for _, n := range timedPerCore {
		ops += n
	}
	return warm, timed, ops
}
