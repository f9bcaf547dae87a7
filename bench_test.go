package silo_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per artifact) plus the ablation studies called
// out in DESIGN.md §6. Each iteration runs the complete experiment in quick
// mode and reports the headline metric alongside ns/op:
//
//	go test -bench=. -benchmem
//
// For paper-scale windows use `paperbench figures -full`; the benchmarks
// exist to regenerate shapes quickly and to track simulator performance.

import (
	"testing"

	silo "repro"
	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/experiments"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/workload"
)

// benchMode trades window size for wall-clock so the full suite finishes in
// minutes. Shapes are stable at these sizes (see experiments tests).
func benchMode() experiments.Mode {
	return experiments.Mode{Name: "bench", WarmInstr: 200_000, WarmCycles: 10_000, MeasureCycles: 40_000, Scale: 32}
}

func BenchmarkFig1CapacitySensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchMode())
		// Report Web Search's gain at 1GB — the paper's late-knee headline.
		b.ReportMetric(r.Norm[0][len(r.CapacitiesMB)-1], "websearch-1GB-x")
	}
}

func BenchmarkFig2LatencySensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig2(benchMode())
		// Report the 1GB capacity at +100% latency: the collapse point.
		b.ReportMetric(r.Norm[len(r.CapacitiesMB)-1][len(r.ExtraPct)-1], "1GB+100pct-x")
	}
}

func BenchmarkFig3SharingBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig3(benchMode())
		b.ReportMetric(r.WritesRWSharingPct[0], "websearch-rwshare-pct")
	}
}

func BenchmarkFig4RWSharedLatency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchMode())
		b.ReportMetric(r.Norm[1][3], "dataserving-4x-norm")
	}
}

func BenchmarkFig7TileSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts := experiments.Fig7()
		b.ReportMetric(pts[2].Latency, "256tile-latency-x")
	}
}

func BenchmarkFig8VaultDesignSpace(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8()
		var at256 float64
		for _, d := range r.Envelope {
			if d.CapacityMB == 256 {
				at256 = d.AccessNS()
			}
		}
		b.ReportMetric(at256, "256MB-ns")
	}
}

func BenchmarkTable1DesignPoints(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := experiments.Table1()
		b.ReportMetric(c.LatencyRatio, "latency-ratio")
	}
}

func BenchmarkFig10ScaleOut(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(benchMode())
		b.ReportMetric(r.SpeedupOf("SILO"), "silo-geomean-x")
	}
}

func BenchmarkFig11HitBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig11(benchMode())
		b.ReportMetric(r.MissReduction[4], "satsolver-missred")
	}
}

func BenchmarkFig12Optimizations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig12(benchMode())
		b.ReportMetric(r.Norm[1][3], "dataserving-bothopt-x")
	}
}

func BenchmarkFig13Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig13(benchMode())
		b.ReportMetric(r.SILOTotal(0), "websearch-silo-energy")
	}
}

func BenchmarkFig14Enterprise(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig14(benchMode())
		b.ReportMetric(r.SpeedupOf("SILO"), "silo-geomean-x")
	}
}

func BenchmarkFig15SpecMixes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig15(benchMode())
		b.ReportMetric(r.Mean(), "mean-speedup-x")
	}
}

func BenchmarkTable6Isolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Table6(benchMode())
		b.ReportMetric(r.SharedColoc, "shared-colocated-x")
		b.ReportMetric(r.SILOColoc, "silo-colocated-x")
	}
}

func BenchmarkFig16ThreeLevel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig16(benchMode())
		b.ReportMetric(r.Norm[4][2], "satsolver-3lsilo-x")
	}
}

// --- Experiment-runner parallelism ------------------------------------------

// BenchmarkEvalSuiteSequential and BenchmarkEvalSuiteParallel run the same
// Fig 10 suite (5 systems x 8 workloads = 40 cells) with one worker vs the
// full worker pool. Their results are bit-identical (asserted by
// TestFig10ParallelMatchesSequential); on an N-core machine the parallel
// variant's ns/op should approach 1/N of the sequential one.

func BenchmarkEvalSuiteSequential(b *testing.B) {
	m := benchMode()
	m.Parallelism = 1
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(m)
		b.ReportMetric(r.SpeedupOf("SILO"), "silo-geomean-x")
	}
}

func BenchmarkEvalSuiteParallel(b *testing.B) {
	m := benchMode() // Parallelism 0 = one worker per GOMAXPROCS
	for i := 0; i < b.N; i++ {
		r := experiments.Fig10(m)
		b.ReportMetric(r.SpeedupOf("SILO"), "silo-geomean-x")
	}
}

// --- Ablations (DESIGN.md §6) ----------------------------------------------

// benchSystem runs one system/workload pair and returns aggregate IPC.
func benchIPC(cfg silo.Config, w silo.Workload) float64 {
	cfg.Scale = 32
	sys := silo.NewSystem(cfg, w)
	sys.Prewarm()
	sys.WarmFunctional(200_000)
	return sys.Run(10_000, 40_000).IPC()
}

// Direct-mapped vs 4-way set-associative vaults: the paper argues the
// vault's capacity compensates for direct mapping.
func BenchmarkAblationVaultAssociativity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		dm := benchIPC(silo.SILOConfig(16), silo.SATSolver())
		sa := silo.SILOConfig(16)
		sa.VaultWays = 4
		assoc := benchIPC(sa, silo.SATSolver())
		b.ReportMetric(assoc/dm, "4way-over-dm-x")
	}
}

// MOESI vs MESI: the O state avoids memory writebacks when dirty lines are
// shared (paper Sec. V-B).
func BenchmarkAblationMOESIvsMESI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		moesi := benchIPC(silo.SILOConfig(16), silo.DataServing())
		mesiCfg := silo.SILOConfig(16)
		mesiCfg.Protocol = coherence.MESI
		mesi := benchIPC(mesiCfg, silo.DataServing())
		b.ReportMetric(moesi/mesi, "moesi-over-mesi-x")
	}
}

// TAD unified tag+data vs serialized tag-then-data access: the unified
// fetch saves one array access of latency per hit (paper Sec. V-A).
// Serialization is modelled by doubling the vault array time.
func BenchmarkAblationTAD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tad := benchIPC(silo.SILOConfig(16), silo.WebSearch())
		ser := silo.SILOConfig(16)
		ser.VaultTiming.ArrayCycles *= 2
		serial := benchIPC(ser, silo.WebSearch())
		b.ReportMetric(tad/serial, "tad-over-serialized-x")
	}
}

// Closed-page bank occupancy ablation: longer bank busy time models an
// open-page policy's worst case (row conflicts on every access).
func BenchmarkAblationPagePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		closed := benchIPC(silo.SILOConfig(16), silo.MapReduce())
		open := silo.SILOConfig(16)
		open.VaultTiming.ArrayCycles += 6 // precharge-on-demand penalty
		openIPC := benchIPC(open, silo.MapReduce())
		b.ReportMetric(closed/openIPC, "closed-over-open-x")
	}
}

// Raw component benchmarks: simulator throughput on the hot paths.

// BenchmarkSystemSimulationThroughput times 10K-cycle windows of a warmed
// 16-core SILO machine running Web Search at Scale 32 — the
// cache-resident regime. Paper-scale (Scale 1 and 4) timing is perfbench's
// job (perfbench/README.md).
func BenchmarkSystemSimulationThroughput(b *testing.B) {
	cfg := silo.SILOConfig(16)
	cfg.Scale = 32
	sys := silo.NewSystem(cfg, silo.WebSearch())
	sys.Prewarm()
	sys.WarmFunctional(100_000)
	b.ResetTimer()
	var retired uint64
	for i := 0; i < b.N; i++ {
		retired += sys.Run(0, 10_000).Retired
	}
	b.ReportMetric(float64(retired)/float64(b.N), "instr/iter")
}

// schedulerProbe drives the given event-queue implementation through the
// simulator's canonical event mix — a steady population of in-flight
// events completing at vault/LLC-scale short delays, with a sprinkling of
// far-future events that exercise the calendar queue's overflow path —
// and returns the events executed (the probe's events plus the drained
// steady-state population).
func schedulerProbe(kind sim.SchedulerKind) uint64 {
	const events = 1 << 20
	e := sim.NewEngineWithScheduler(kind)
	fn := func(uint64) {}
	const population = 512
	for i := 0; i < population; i++ {
		e.ScheduleArg(sim.Cycle(i%48+1), fn, 0)
	}
	start := e.Executed()
	for i := 0; i < events; i++ {
		delay := sim.Cycle(i%48 + 1) // vault access scale (paper Table II: ~23)
		if i%64 == 0 {
			delay = sim.Cycle(i%1500 + 300) // refresh/idle-timer scale
		}
		e.ScheduleArg(delay, fn, uint64(i))
		e.Step()
	}
	e.RunAll()
	return e.Executed() - start
}

// BenchmarkSchedulerProbe* time the engine's event-queue implementations on
// the canonical simulator event mix (schedulerProbe). The calendar queue
// is the engine default; the binary heap is the reference.

func benchSchedulerProbe(b *testing.B, kind sim.SchedulerKind) {
	var events uint64
	for i := 0; i < b.N; i++ {
		events += schedulerProbe(kind)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkSchedulerProbeCalendar(b *testing.B) { benchSchedulerProbe(b, sim.CalendarQueue) }
func BenchmarkSchedulerProbeHeap(b *testing.B)     { benchSchedulerProbe(b, sim.BinaryHeap) }

// arrayProbe drives cache.Array through the simulator's canonical access
// mix — a hot L1-shaped array (mostly hits: probe + touch) and a large
// direct-mapped vault-shaped array (the SILO LLC slice: probe, then fill
// on miss) — and returns the accesses performed.
func arrayProbe() uint64 {
	const ops = 1 << 20
	l1 := cache.NewArray(2<<10, 8, cache.LRU)    // scaled L1 shape
	vault := cache.NewArray(8<<20, 1, cache.LRU) // scaled 256MB vault at Scale 32
	rng := sim.NewRNG(0x5EED)
	l1Lines := uint64(l1.SizeBytes()/mem.LineSize) * 2 // 2x capacity: conflicts
	vaultLines := uint64(vault.SizeBytes()/mem.LineSize) * 2
	for i := 0; i < ops; i++ {
		if i%4 != 0 {
			// L1 traffic: hit-dominated probe+touch, insert on miss.
			line := mem.LineAddr(rng.Uint64n(l1Lines) * mem.LineSize)
			if w := l1.Probe(line); w != cache.NoWay {
				l1.TouchWay(w)
			} else {
				l1.InsertAt(line, cache.Shared)
			}
		} else {
			// Vault traffic: direct-mapped probe, streaming fills demoted.
			line := mem.LineAddr(rng.Uint64n(vaultLines) * mem.LineSize)
			if w := vault.Probe(line); w != cache.NoWay {
				vault.TouchWay(w)
			} else {
				w, _, _ := vault.InsertAt(line, cache.Shared)
				if i%16 == 0 {
					vault.DemoteWay(w)
				}
			}
		}
	}
	return ops
}

// BenchmarkArrayProbe times the cache-array fast path on the canonical L1 +
// direct-mapped-vault access mix (arrayProbe).
func BenchmarkArrayProbe(b *testing.B) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		ops += arrayProbe()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/access")
}

// coherenceTableProbe drives both coherence substrates — the MOESI
// directory and the MESI snoop filter — through a read/share/write/evict
// cycle over a line population large enough to exercise the store's
// growth and deletion paths, on the given store implementation, and
// returns the operations performed.
func coherenceTableProbe(kind coherence.StoreKind) uint64 {
	const ops = 1 << 20
	const cores = 16
	const lines = 1 << 16
	dir := coherence.NewDirectoryWithStore(cores, coherence.MOESI, kind)
	snoop := coherence.NewSnoopFilterWithStore(cores, kind)
	// 7 store-touching operations per iteration: the StateOf guard always
	// probes, and the guarded Read always fires in steady state because
	// the preceding iteration's Evict emptied the line's entry.
	for i := 0; i < ops/7; i++ {
		line := mem.LineAddr(uint64(i%lines) * mem.LineSize)
		r := i % cores
		w := (i + 7) % cores
		if dir.StateOf(line, r) == cache.Invalid {
			dir.Read(line, r)
		}
		dir.WriteMask(line, w)
		dir.Evict(line, w)
		snoop.Read(line, r)
		snoop.WriteMask(line, w)
		snoop.Evict(line, w, false)
	}
	return ops / 7 * 7
}

// BenchmarkCoherenceTable* time the coherence substrates' store
// implementations on the canonical directory + snoop-filter op cycle
// (coherenceTableProbe). The open-addressed table is the default; the Go
// map is the retained reference.
func benchCoherenceTable(b *testing.B, kind coherence.StoreKind) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		ops += coherenceTableProbe(kind)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
}

func BenchmarkCoherenceTableOpen(b *testing.B) { benchCoherenceTable(b, coherence.OpenTable) }
func BenchmarkCoherenceTableMap(b *testing.B)  { benchCoherenceTable(b, coherence.MapStore) }

// BenchmarkCoherenceTableQuot times the quotient-key-compressed store
// (8 B/slot, the default for ≤16-core systems — see DESIGN.md §8).
func BenchmarkCoherenceTableQuot(b *testing.B) { benchCoherenceTable(b, coherence.QuotTable) }

// streamProbe drives the workload trace generator through the simulator's
// canonical stream (Web Search at Scale 32, a 16-core system's core 0)
// either op by op (Next, the serial reference) or through the batched
// refill path (NextBatch) the cpu core consumes from, and returns the ops
// generated. Both paths produce bit-identical op sequences
// (workload.TestNextBatchMatchesNext); the probe quantifies the batching
// win.
func streamProbe(batched bool) uint64 {
	const ops = 1 << 20
	const batch = 16 // the cpu core's refill size: the path the hot loop pays
	st := workload.NewStream(workload.WebSearch(), 0, 16, 32, 0x5EED)
	if batched {
		var buf [batch]workload.Op
		for n := 0; n < ops; n += batch {
			st.NextBatch(buf[:])
		}
	} else {
		var op workload.Op
		for n := 0; n < ops; n++ {
			st.Next(&op)
		}
	}
	return ops
}

// BenchmarkStreamProbe* time trace generation per op through the serial
// (Next) and batched (NextBatch, what the cpu core consumes) paths on the
// canonical stream (streamProbe).
func benchStreamProbe(b *testing.B, batched bool) {
	var ops uint64
	for i := 0; i < b.N; i++ {
		ops += streamProbe(batched)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ops), "ns/op")
}

func BenchmarkStreamProbeSerial(b *testing.B)  { benchStreamProbe(b, false) }
func BenchmarkStreamProbeBatched(b *testing.B) { benchStreamProbe(b, true) }

// BenchmarkDirectoryOps measures the duplicate-tag directory's hot path:
// a read-share-write-evict cycle across 16 cores.
func BenchmarkDirectoryOps(b *testing.B) {
	d := coherence.NewDirectory(16, coherence.MOESI)
	for i := 0; i < b.N; i++ {
		line := mem.LineAddr(uint64(i%4096) * mem.LineSize)
		r := i % 16
		if d.StateOf(line, r) == 0 { // Invalid
			d.Read(line, r)
		}
		w := (i + 7) % 16
		d.Write(line, w)
		d.Evict(line, w)
	}
}

// BenchmarkWorkloadStream measures trace-generation throughput.
func BenchmarkWorkloadStream(b *testing.B) {
	stream := workload.NewStream(workload.WebSearch(), 0, 16, 32, 1)
	var op workload.Op
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stream.Next(&op)
	}
}
