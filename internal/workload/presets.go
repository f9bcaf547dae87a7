package workload

import "fmt"

// The presets below are the calibration targets of the reproduction.
// Parameters are chosen so the synthetic streams reproduce the paper's
// published characterization (see DESIGN.md §4):
//
//   - The middle working set (hundreds of KB per core) misses the L1s but
//     hits even the 8MB shared LLC; it carries most LLC traffic, making
//     every workload latency-sensitive (Fig 2's isocurves collapse when
//     LLC latency doubles) while capacity-insensitive below the knee.
//   - Secondary working sets set the Fig 1 capacity knees: Data Serving,
//     Web Frontend and SAT Solver gain 10-20% once ~256MB of aggregate LLC
//     fits their secondary sets; Web Search needs ~1GB; MapReduce more.
//   - MemRatio and SecondaryFrac set the magnitude of SILO's gains
//     (Fig 10) and the miss-rate reductions (Fig 11): MapReduce and SAT
//     Solver are the most miss-heavy and gain the most (54%, 37%).
//   - RWSharedFrac reproduces the Fig 3 sharing breakdown (Web Search ~4%,
//     Data Serving ~3% of LLC accesses to RW-shared blocks; MapReduce and
//     SAT Solver negligible).
//   - RemoteProb gives Data Serving and Web Frontend their visible remote
//     vault hit fractions (Fig 11).
//   - Low MLP exposes LLC latency (paper Sec. II-B).

// KB and MB express footprint sizes in the presets.
const (
	KB = int64(1) << 10
	MB = int64(1) << 20
)

// WebSearch models the Apache Nutch/Lucene index-serving workload: a large
// secondary working set (index segments) that only fits at ~1GB aggregate
// LLC, a hefty shared code footprint, and mild GC-induced RW sharing.
func WebSearch() Spec {
	return Spec{
		Name: "WebSearch", Class: ScaleOut,
		InstrFootprint: 2560 * KB, JumpEveryLines: 5,
		MemRatio: 0.30, StoreFrac: 0.12,
		PrimaryWSS: 48 * KB, PrimaryFrac: 0.9083,
		MiddleWSS: 128 * KB, MiddleFrac: 0.064,
		SecondaryWSS: 56 * MB, SecondaryFrac: 0.0071, ScanFrac: 0.75, RemoteProb: 0.05,
		RWSharedFrac: 0.010, SharedPool: 1 * MB, SharedWriteFrac: 0.35,
		MLP: 2, IndepProb: 0.35,
	}
}

// DataServing models Cassandra: moderate secondary set, the highest
// remote-sharing of the scale-out suite (parallel GC and replica reads),
// visible RW sharing.
func DataServing() Spec {
	return Spec{
		Name: "DataServing", Class: ScaleOut,
		InstrFootprint: 2 * MB, JumpEveryLines: 5,
		MemRatio: 0.32, StoreFrac: 0.18,
		PrimaryWSS: 48 * KB, PrimaryFrac: 0.9240,
		MiddleWSS: 128 * KB, MiddleFrac: 0.050,
		SecondaryWSS: 13 * MB, SecondaryFrac: 0.0056, ScanFrac: 0.75, RemoteProb: 0.22,
		RWSharedFrac: 0.010, SharedPool: 1 * MB, SharedWriteFrac: 0.40,
		MLP: 2, IndepProb: 0.30,
	}
}

// WebFrontend models the SPECweb2009-style PHP/web-serving tier: the
// largest instruction footprint, smallest data appetite, least cache
// sensitivity of the suite (paper: SILO's smallest gain).
func WebFrontend() Spec {
	return Spec{
		Name: "WebFrontend", Class: ScaleOut,
		InstrFootprint: 3 * MB, JumpEveryLines: 4,
		MemRatio: 0.28, StoreFrac: 0.20,
		PrimaryWSS: 56 * KB, PrimaryFrac: 0.9658,
		MiddleWSS: 128 * KB, MiddleFrac: 0.022,
		SecondaryWSS: 10 * MB, SecondaryFrac: 0.0007, ScanFrac: 0.75, RemoteProb: 0.12,
		RWSharedFrac: 0.008, SharedPool: 512 * KB, SharedWriteFrac: 0.40,
		MLP: 2, IndepProb: 0.30,
	}
}

// MapReduce models the Hadoop/Mahout classification job: streaming-heavy,
// the largest secondary set of the suite (input splits and intermediate
// data), negligible sharing, the most memory-intensive — and therefore the
// biggest SILO winner (paper: +54%).
func MapReduce() Spec {
	return Spec{
		Name: "MapReduce", Class: ScaleOut,
		InstrFootprint: 1536 * KB, JumpEveryLines: 8,
		MemRatio: 0.36, StoreFrac: 0.22,
		PrimaryWSS: 40 * KB, PrimaryFrac: 0.9105,
		MiddleWSS: 128 * KB, MiddleFrac: 0.054,
		SecondaryWSS: 160 * MB, SecondaryFrac: 0.0205, ScanFrac: 0.80, RemoteProb: 0.02,
		RWSharedFrac: 0.001, SharedPool: 256 * KB, SharedWriteFrac: 0.30,
		MLP: 2, IndepProb: 0.40,
	}
}

// SATSolver models the Cloud9/Klee symbolic-execution engine: pointer
// chasing over a clause database that fits a 256MB-class LLC, very low
// sharing, highly dependent accesses (paper: +37%, 67% miss reduction).
func SATSolver() Spec {
	return Spec{
		Name: "SATSolver", Class: ScaleOut,
		InstrFootprint: 1280 * KB, JumpEveryLines: 7,
		MemRatio: 0.34, StoreFrac: 0.14,
		PrimaryWSS: 40 * KB, PrimaryFrac: 0.9337,
		MiddleWSS: 128 * KB, MiddleFrac: 0.054,
		SecondaryWSS: 12 * MB, SecondaryFrac: 0.0073, ScanFrac: 0.75, RemoteProb: 0.03,
		RWSharedFrac: 0.001, SharedPool: 256 * KB, SharedWriteFrac: 0.30,
		MLP: 2, IndepProb: 0.30,
	}
}

// ScaleOutSuite returns the five scale-out workloads in paper order.
func ScaleOutSuite() []Spec {
	return []Spec{WebSearch(), DataServing(), WebFrontend(), MapReduce(), SATSolver()}
}

// TPCC models the DB2 OLTP workload: buffer-pool resident rows whose
// per-core share is captured by a conventional DRAM cache (hence
// Baseline+DRAM$'s small enterprise win) and fully by SILO's vaults. The
// heavy middle traffic is what makes the slow shared vaults of Vaults-Sh
// a net loss on enterprise applications (paper: -9%).
func TPCC() Spec {
	return Spec{
		Name: "TPCC", Class: Enterprise,
		InstrFootprint: 2 * MB, JumpEveryLines: 7,
		MemRatio: 0.30, StoreFrac: 0.24,
		PrimaryWSS: 48 * KB, PrimaryFrac: 0.9278,
		MiddleWSS: 128 * KB, MiddleFrac: 0.060,
		SecondaryWSS: 96 * MB, SecondaryFrac: 0.0024, ScanFrac: 0.60, RemoteProb: 0.10,
		RWSharedFrac: 0.004, SharedPool: 1 * MB, SharedWriteFrac: 0.45,
		MLP: 2, IndepProb: 0.35,
	}
}

// Oracle models the Oracle OLTP workload: like TPCC with a smaller SGA.
func Oracle() Spec {
	return Spec{
		Name: "Oracle", Class: Enterprise,
		InstrFootprint: 2560 * KB, JumpEveryLines: 7,
		MemRatio: 0.29, StoreFrac: 0.22,
		PrimaryWSS: 48 * KB, PrimaryFrac: 0.9324,
		MiddleWSS: 128 * KB, MiddleFrac: 0.056,
		SecondaryWSS: 72 * MB, SecondaryFrac: 0.0022, ScanFrac: 0.60, RemoteProb: 0.10,
		RWSharedFrac: 0.004, SharedPool: 1 * MB, SharedWriteFrac: 0.45,
		MLP: 2, IndepProb: 0.35,
	}
}

// Zeus models the Zeus web server: instruction-bound with a modest data
// set, the least memory-hungry of the enterprise trio.
func Zeus() Spec {
	return Spec{
		Name: "Zeus", Class: Enterprise,
		InstrFootprint: 2560 * KB, JumpEveryLines: 6,
		MemRatio: 0.27, StoreFrac: 0.18,
		PrimaryWSS: 48 * KB, PrimaryFrac: 0.9448,
		MiddleWSS: 128 * KB, MiddleFrac: 0.050,
		SecondaryWSS: 24 * MB, SecondaryFrac: 0.0012, ScanFrac: 0.60, RemoteProb: 0.08,
		RWSharedFrac: 0.002, SharedPool: 1 * MB, SharedWriteFrac: 0.40,
		MLP: 2, IndepProb: 0.35,
	}
}

// EnterpriseSuite returns the three enterprise workloads in paper order.
func EnterpriseSuite() []Spec {
	return []Spec{TPCC(), Oracle(), Zeus()}
}

// specBench builds a single-threaded SPEC CPU2006 component. SPEC codes
// have small instruction footprints (they live in the L1-I), no sharing,
// and differ mainly in memory intensity, working-set size and MLP.
func specBench(name string, memRatio float64, secondaryWSS int64, secFrac, scanFrac float64, mlp int, indep float64) Spec {
	return Spec{
		Name: name, Class: Batch,
		InstrFootprint: 256 * KB, JumpEveryLines: 16,
		MemRatio: memRatio, StoreFrac: 0.20,
		PrimaryWSS: 40 * KB, PrimaryFrac: 1 - secFrac - 0.022,
		MiddleWSS: 192 * KB, MiddleFrac: 0.020,
		SecondaryWSS: secondaryWSS, SecondaryFrac: secFrac, ScanFrac: scanFrac,
		MLP: mlp, IndepProb: indep,
	}
}

// Spec2006 returns the named SPEC CPU2006 benchmark model. Memory-intensive
// codes (mcf, lbm, milc, astar, soplex, omnetpp — the ones the paper calls
// out in Fig 15) have large secondary sets that a private 256MB vault can
// hold but a shared 8MB LLC cannot.
func Spec2006(name string) Spec {
	b, ok := spec06[name]
	if !ok {
		panic(fmt.Sprintf("workload: unknown SPEC2006 benchmark %q", name))
	}
	return b
}

// Spec2006Names lists the modelled benchmarks in sorted order.
func Spec2006Names() []string {
	return append([]string(nil), names06...)
}

var names06 = []string{
	"astar", "bwaves", "bzip2", "cactusADM", "calculix", "gamess", "gcc",
	"gobmk", "gromacs", "lbm", "leslie3d", "mcf", "milc", "namd", "omnetpp",
	"perlbench", "povray", "sjeng", "soplex", "tonto", "xalancbmk", "zeusmp",
}

var spec06 = map[string]Spec{
	// Memory-intensive (the paper's Fig 15 callouts).
	"mcf":    specBench("mcf", 0.38, 240*MB, 0.050, 0.30, 3, 0.45),
	"lbm":    specBench("lbm", 0.36, 200*MB, 0.042, 0.90, 4, 0.70),
	"milc":   specBench("milc", 0.34, 180*MB, 0.038, 0.70, 3, 0.55),
	"astar":  specBench("astar", 0.33, 170*MB, 0.036, 0.25, 2, 0.35),
	"soplex": specBench("soplex", 0.32, 230*MB, 0.032, 0.50, 3, 0.50),
	// Moderately memory-sensitive.
	"omnetpp":   specBench("omnetpp", 0.31, 150*MB, 0.028, 0.20, 2, 0.35),
	"xalancbmk": specBench("xalancbmk", 0.30, 100*MB, 0.024, 0.30, 2, 0.40),
	"bwaves":    specBench("bwaves", 0.31, 160*MB, 0.024, 0.90, 4, 0.70),
	"leslie3d":  specBench("leslie3d", 0.30, 120*MB, 0.022, 0.80, 4, 0.65),
	"zeusmp":    specBench("zeusmp", 0.29, 120*MB, 0.020, 0.70, 3, 0.60),
	"cactusADM": specBench("cactusADM", 0.29, 140*MB, 0.020, 0.60, 3, 0.55),
	"gcc":       specBench("gcc", 0.28, 80*MB, 0.016, 0.30, 2, 0.45),
	"bzip2":     specBench("bzip2", 0.28, 100*MB, 0.014, 0.60, 3, 0.55),
	// Compute-bound.
	"perlbench": specBench("perlbench", 0.27, 30*MB, 0.008, 0.20, 2, 0.45),
	"gobmk":     specBench("gobmk", 0.26, 24*MB, 0.006, 0.20, 2, 0.40),
	"sjeng":     specBench("sjeng", 0.26, 40*MB, 0.006, 0.20, 2, 0.40),
	"gromacs":   specBench("gromacs", 0.26, 8*MB, 0.004, 0.40, 3, 0.55),
	"calculix":  specBench("calculix", 0.26, 16*MB, 0.004, 0.50, 3, 0.55),
	"namd":      specBench("namd", 0.25, 12*MB, 0.003, 0.40, 3, 0.55),
	"tonto":     specBench("tonto", 0.25, 4*MB, 0.002, 0.30, 2, 0.50),
	"povray":    specBench("povray", 0.24, 2*MB, 0.002, 0.20, 2, 0.50),
	"gamess":    specBench("gamess", 0.24, 1*MB, 0.001, 0.20, 2, 0.50),
}

// Mix is a named four-benchmark SPEC combination (paper Table V).
type Mix struct {
	Name       string
	Benchmarks [4]string
}

// Spec06Mixes returns the paper's ten randomly-drawn mixes (Table V).
func Spec06Mixes() []Mix {
	return []Mix{
		{"mix1", [4]string{"sjeng", "calculix", "mcf", "omnetpp"}},
		{"mix2", [4]string{"lbm", "gamess", "namd", "gromacs"}},
		{"mix3", [4]string{"mcf", "zeusmp", "calculix", "lbm"}},
		{"mix4", [4]string{"tonto", "gamess", "bzip2", "namd"}},
		{"mix5", [4]string{"mcf", "povray", "gcc", "cactusADM"}},
		{"mix6", [4]string{"gobmk", "perlbench", "milc", "astar"}},
		{"mix7", [4]string{"xalancbmk", "sjeng", "cactusADM", "bwaves"}},
		{"mix8", [4]string{"calculix", "leslie3d", "astar", "gcc"}},
		{"mix9", [4]string{"gromacs", "gobmk", "gamess", "astar"}},
		{"mix10", [4]string{"omnetpp", "zeusmp", "soplex", "povray"}},
	}
}

// MixSpecs resolves a mix to its four workload specs.
func MixSpecs(m Mix) []Spec {
	out := make([]Spec, 4)
	for i, n := range m.Benchmarks {
		out[i] = Spec2006(n)
	}
	return out
}
