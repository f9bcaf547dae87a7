// Command silosim runs one system x workload simulation and prints its
// metrics. Example:
//
//	silosim -system silo -workload MapReduce -cores 16
//
// -system all runs every organization on the workload concurrently
// (worker pool bounded by -parallel) and prints a comparison table.
// System and workload names resolve exactly as in a paperbench grid
// spec.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	silo "repro"
	"repro/internal/experiments"
)

// allSystems is the -system all comparison, in Fig 10's order.
var allSystems = []string{"Baseline", "Baseline+DRAM$", "SILO", "SILO-CO", "Vaults-Sh"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run parses args, simulates, and prints to stdout; diagnostics go to
// stderr. It returns the exit status: 2 for a usage error, 1 for an
// invariant violation.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("silosim", flag.ContinueOnError)
	system := fs.String("system", "silo", "baseline | baseline+dram | silo | silo-co | vaults-sh | all")
	name := fs.String("workload", "WebSearch", "workload name (scale-out, enterprise, or SPEC2006)")
	cores := fs.Int("cores", 16, "core count (1-32, powers of two)")
	warmInstr := fs.Int("warm-instr", 300_000, "functional warm-up instructions per core")
	warm := fs.Uint64("warm-cycles", 20_000, "timed warm-up cycles")
	measure := fs.Uint64("measure-cycles", 60_000, "measured cycles")
	parallel := fs.Int("parallel", 0, "worker pool size for -system all (0 = all cores)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *parallel < 0 {
		fmt.Fprintf(os.Stderr, "silosim: -parallel %d is negative (0 = all cores, 1 = sequential, N = N workers)\n", *parallel)
		return 2
	}
	if *measure == 0 {
		fmt.Fprintln(os.Stderr, "silosim: -measure-cycles must be positive")
		return 2
	}

	spec, err := experiments.WorkloadByName(*name)
	if err != nil {
		fmt.Fprintf(os.Stderr, "silosim: %v\n", err)
		return 2
	}

	systems := []string{*system}
	if strings.EqualFold(*system, "all") {
		systems = allSystems
	}
	cfgs := make([]silo.Config, len(systems))
	for i, s := range systems {
		if cfgs[i], err = experiments.SystemByName(s); err != nil {
			fmt.Fprintf(os.Stderr, "silosim: %v\n", err)
			return 2
		}
		cfgs[i].Cores = *cores
	}
	if len(cfgs) > 1 {
		runAll(stdout, cfgs, spec, *warmInstr, silo.Cycle(*warm), silo.Cycle(*measure), *parallel)
		return 0
	}

	cfg := cfgs[0]
	sys := silo.NewSystem(cfg, spec)
	sys.Prewarm()
	sys.WarmFunctional(*warmInstr)
	m := sys.Run(silo.Cycle(*warm), silo.Cycle(*measure))

	s := m.Stats
	fmt.Fprintf(stdout, "system=%s workload=%s cores=%d\n", cfg.Kind, spec.Name, *cores)
	fmt.Fprintf(stdout, "  IPC (aggregate):   %.3f\n", m.IPC())
	fmt.Fprintf(stdout, "  LLC accesses:      %d (hit rate %.1f%%)\n", s.LLCAccesses, 100*m.LLCHitRate())
	fmt.Fprintf(stdout, "  local/remote/miss: %d / %d / %d\n", s.LocalHits, s.RemoteHits, s.Misses)
	fmt.Fprintf(stdout, "  memory traffic:    %d reads, %d writebacks\n", s.MemAccesses, s.MemWritebacks)
	fmt.Fprintf(stdout, "  coherence:         %d forwards, %d invalidations, %d upgrades\n",
		s.Forwards, s.Invalidations, s.Upgrades)
	if msg := sys.CheckInvariants(); msg != "" {
		fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %s\n", msg)
		return 1
	}
	return 0
}

// runAll compares system organizations on one workload, running the
// simulations concurrently through the experiments runner.
func runAll(stdout io.Writer, cfgs []silo.Config, spec silo.Workload, warmInstr int, warm, measure silo.Cycle, parallel int) {
	cells := make([]silo.SimCell, len(cfgs))
	for i, cfg := range cfgs {
		cells[i] = silo.SimCell{Label: "silosim/" + cfg.Kind.String(), Config: cfg, Specs: []silo.Workload{spec}}
	}
	mode := silo.ExperimentMode{
		Name:          "cli",
		WarmInstr:     warmInstr,
		WarmCycles:    warm,
		MeasureCycles: measure,
		// The runner overrides each cell's Scale from the mode; use the
		// presets' own default so -system all matches the single-system path.
		Scale:       cells[0].Config.Scale,
		Parallelism: parallel,
	}
	ms := silo.RunCells(cells, mode)

	fmt.Fprintf(stdout, "workload=%s cores=%d (all systems)\n", spec.Name, cfgs[0].Cores)
	fmt.Fprintf(stdout, "%-16s %8s %10s %12s %10s\n", "system", "IPC", "hit-rate", "mem-reads", "vs-base")
	base := ms[0].IPC()
	for i, m := range ms {
		rel := "-"
		if base > 0 {
			rel = fmt.Sprintf("%.3fx", m.IPC()/base)
		}
		fmt.Fprintf(stdout, "%-16s %8.3f %9.1f%% %12d %10s\n",
			cells[i].Config.Kind, m.IPC(), 100*m.LLCHitRate(), m.Stats.MemAccesses, rel)
	}
}
