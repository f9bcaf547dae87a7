package main

// metricDef names one reported metric. Moves is the end-to-end metric a
// per-layer metric should move when its layer gets faster or slower;
// Exact marks counts that must repeat bit for bit across runs of one seed
// and across any change that only touches host speed.
type metricDef struct {
	Name, Unit, Better, Moves string
	Exact                     bool
}

// e2eDefs are the waits a user sits through, measured untraced.
var e2eDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "sim_mips", Unit: "MIPS", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "suite_s", Unit: "s", Better: "lower"},
}

const (
	movesSetup   = "setup_s, suite_s"
	movesTimed   = "sim_mips"
	movesTable   = "sim_mips, peak_rss_mb, setup_s"
	movesRestore = "setup_s, peak_rss_mb"
	movesNone    = "none"
)

// layerDefs are the per-layer metrics of the traced run, grouped by the
// module whose calls the spans wrap.
var layerDefs = append([]metricDef{
	{Name: "core.build_s", Unit: "s", Better: "lower", Moves: movesSetup},
	{Name: "core.prewarm_s", Unit: "s", Better: "lower", Moves: movesSetup},
	{Name: "core.warm_s", Unit: "s", Better: "lower", Moves: movesSetup},
	{Name: "core.warm_mips", Unit: "MIPS", Better: "higher", Moves: movesSetup},
	{Name: "core.timed_s", Unit: "s", Better: "lower", Moves: movesTimed},
	{Name: "core.span_ms_p50", Unit: "ms", Better: "lower", Moves: movesTimed},
	{Name: "core.span_ms_p90", Unit: "ms", Better: "lower", Moves: movesTimed},
	{Name: "core.spans", Unit: "count", Better: "higher", Moves: movesTimed, Exact: true},

	{Name: "workload.gen_ns_per_op", Unit: "ns", Better: "lower", Moves: "sim_mips, setup_s, suite_s"},
	{Name: "workload.gen_share_warm", Unit: "frac", Better: "lower", Moves: movesSetup},
	{Name: "workload.gen_share_timed", Unit: "frac", Better: "lower", Moves: movesTimed},

	{Name: "sim.events_per_kinstr", Unit: "1/kinstr", Better: "lower", Moves: movesTimed, Exact: true},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Moves: movesTimed},

	{Name: "coherence.table_entries_setup", Unit: "count", Better: "lower", Moves: movesTable, Exact: true},
	{Name: "coherence.table_mb_setup", Unit: "MB", Better: "lower", Moves: movesTable},
	{Name: "coherence.table_mb_end", Unit: "MB", Better: "lower", Moves: movesTable},
	{Name: "coherence.dir_accesses_pki", Unit: "1/kinstr", Better: "lower", Moves: movesTimed, Exact: true},
	{Name: "coherence.forwards_pki", Unit: "1/kinstr", Better: "lower", Moves: movesTimed, Exact: true},
	{Name: "coherence.invalidations_pki", Unit: "1/kinstr", Better: "lower", Moves: movesTimed, Exact: true},

	{Name: "checkpoint.image_mb", Unit: "MB", Better: "lower", Moves: movesRestore, Exact: true},
	{Name: "checkpoint.save_s", Unit: "s", Better: "lower", Moves: "none (preparation)"},
	{Name: "checkpoint.restore_s", Unit: "s", Better: "lower", Moves: movesRestore},
	{Name: "checkpoint.restore_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesRestore},
	{Name: "core.cold_setup_s", Unit: "s", Better: "lower", Moves: "none (preparation)"},

	{Name: "cpu.ipc", Unit: "instr/cycle", Better: "higher", Moves: movesNone, Exact: true},
	{Name: "cache.llc_accesses_pki", Unit: "1/kinstr", Better: "lower", Moves: movesNone, Exact: true},
	{Name: "cache.llc_hit_rate", Unit: "frac", Better: "higher", Moves: movesNone, Exact: true},
	{Name: "cache.remote_hit_frac", Unit: "frac", Better: "lower", Moves: movesNone, Exact: true},
	{Name: "vault.accesses_pki", Unit: "1/kinstr", Better: "lower", Moves: movesNone, Exact: true},
	{Name: "memctl.reads_pki", Unit: "1/kinstr", Better: "lower", Moves: movesNone, Exact: true},
	{Name: "memctl.writebacks_pki", Unit: "1/kinstr", Better: "lower", Moves: movesNone, Exact: true},

	{Name: "experiments.cells", Unit: "count", Better: "higher", Moves: "suite_s", Exact: true},
	{Name: "experiments.cpu_util", Unit: "frac", Better: "higher", Moves: "suite_s"},
	{Name: "experiments.silo_geomean_x", Unit: "x", Better: "higher", Moves: "suite_s", Exact: true},
}, append(runtimeDefs(),
	metricDef{Name: "host.cpu_canary_ns", Unit: "ns", Better: "lower", Moves: movesNone},
	metricDef{Name: "host.mem_canary_ns", Unit: "ns", Better: "lower", Moves: movesNone},
	metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower", Moves: movesNone},
)...)

// phases are the spans the Go runtime metrics are read across: a cell's
// set-up, its timed phase, and the whole measured op (the cell, or the
// Fig 10 suite).
var phases = []struct{ Suffix, Moves string }{
	{"_setup", "setup_s"},
	{"_timed", "sim_mips"},
	{"_suite", "suite_s, peak_rss_mb"},
}

func runtimeDefs() []metricDef {
	var out []metricDef
	for _, p := range phases {
		out = append(out,
			metricDef{Name: "runtime.alloc_mb" + p.Suffix, Unit: "MB", Better: "lower", Moves: p.Moves},
			metricDef{Name: "runtime.live_heap_mb" + p.Suffix, Unit: "MB", Better: "lower", Moves: p.Moves},
			metricDef{Name: "runtime.gc_cycles" + p.Suffix, Unit: "count", Better: "lower", Moves: p.Moves},
			metricDef{Name: "runtime.gc_cpu_s" + p.Suffix, Unit: "s", Better: "lower", Moves: p.Moves},
			metricDef{Name: "runtime.minflt" + p.Suffix, Unit: "count", Better: "lower", Moves: p.Moves},
			metricDef{Name: "runtime.sys_cpu_s" + p.Suffix, Unit: "s", Better: "lower", Moves: p.Moves},
		)
	}
	return out
}
