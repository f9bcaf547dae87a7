// Command perfbench is the repository's end-to-end benchmark. It measures
// the waits a user of the simulator sits through — a cold paper-length
// build and warm-up, a checkpoint restore, the timed phase, and a Fig 10
// suite — checks every simulated result it produces, and, in its traced
// mode, splits the host time across the modules it calls.
//
//	go build -o .bench_build/perfbench ./perfbench
//	.bench_build/perfbench --workload ws_silo_s4_cold --seed 1 --seconds 15 --trace 0
//
// --workload all runs the three workloads in one process. The last line
// of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}, with the end-to-end metrics untraced and the
// per-layer metrics traced. The exit code is non-zero when any op fails.
// README.md in this directory defines every metric and workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// runner carries one invocation's settings. tr is nil unless tracing.
type runner struct {
	seed   uint64
	budget time.Duration
	work   string
	run    string
	tr     *tracer
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout))
}

func mainErr(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "ws_silo_s4_cold, ws_silo_s1_ckpt, fig10_quick or all")
	seed := fs.Uint64("seed", 1, "workload seed, passed as core.Config.Seed to the ws_* workloads")
	seconds := fs.Float64("seconds", 15, "measure at least this long per workload")
	trace := fs.Int("trace", 0, "1: also run one traced op per workload and report per-layer metrics")
	work := fs.String("work", ".bench_build", "directory for the checkpoint and span files")
	prepare := fs.String("prepare", "", "internal: cut ws_silo_s1_ckpt's checkpoint to this path")
	run := fs.String("run", "", "internal: the parent run's identifier")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// At most two threads run Go code, on any host: the figures compare
	// across hosts only through this fixed width.
	runtime.GOMAXPROCS(2)

	if *prepare != "" {
		if err := prepareMain(*prepare, *seed, *run, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: prepare:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		return 2
	}
	type job struct {
		r    *runner
		res  *result
		body func(*runner, *result)
	}
	var jobs []job
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			r := &runner{seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), work: *work,
				run: fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano())}
			if *trace == 1 {
				r.tr = newTracer(r.run)
			}
			res := &result{workload: w.name, samples: map[string][]float64{}, layers: map[string]float64{}}
			jobs = append(jobs, job{r, res, w.run})
		}
	}
	if len(jobs) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	}

	start := readCanaries()
	for _, j := range jobs {
		j.body(j.r, j.res)
	}
	end := readCanaries()

	fmt.Fprintf(stdout, "perfbench seed=%d seconds=%g trace=%d GOMAXPROCS=%d\n",
		*seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	fmt.Fprintf(stdout, "host canaries: cpu %.4f ns/iter (start %.4f, end %.4f), mem %.2f ns/load (start %.2f, end %.2f)\n",
		(start.CPU+end.CPU)/2, start.CPU, end.CPU, (start.Mem+end.Mem)/2, start.Mem, end.Mem)
	out := jsonResult{Metrics: map[string]jsonMetric{}}
	for _, j := range jobs {
		r, res := j.r, j.res
		if r.tr != nil {
			res.layers["host.cpu_canary_ns"] = (start.CPU + end.CPU) / 2
			res.layers["host.mem_canary_ns"] = (start.Mem + end.Mem) / 2
		}
		printResult(stdout, r, res)
		prefix := ""
		if len(jobs) > 1 {
			prefix = res.workload + "/"
		}
		out.Attempted += res.attempted
		out.Failed += len(res.failures)
		defs, vals := e2eDefs, medians(res)
		if r.tr != nil {
			defs, vals = layerDefs, res.layers
		}
		for _, d := range defs {
			v, ok := vals[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				// A metric that a failed op left unmeasured (or that does
				// not apply to this workload) is reported as 0.
				v = 0
			}
			out.Metrics[prefix+d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		}
	}
	out.Correct = out.Failed == 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func medians(res *result) map[string]float64 {
	out := map[string]float64{}
	for name, xs := range res.samples {
		out[name] = summarize(xs).Median
	}
	return out
}

// printResult writes one workload's human-readable report: end-to-end
// medians with their sample counts, and when traced the per-layer metrics
// beside the end-to-end metric each should move, plus the self-time
// table of its spans.
func printResult(w io.Writer, r *runner, res *result) {
	fmt.Fprintf(w, "== %s  seed=%d  run=%s\n", res.workload, r.seed, r.run)
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	for _, d := range e2eDefs {
		if xs := res.samples[d.Name]; len(xs) > 0 {
			fmt.Fprintf(w, "  %-12s %12.4f %-5s %s: %s\n", d.Name, summarize(xs).Median, d.Unit, summarize(xs), fmtSamples(xs))
		}
	}
	fmt.Fprintf(w, "  ops: attempted %d, failed %d\n", res.attempted, len(res.failures))
	for _, f := range res.failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
	if r.tr == nil {
		return
	}
	fmt.Fprintf(w, "  %-32s %16s %-12s %-6s %s\n", "per-layer metric", "value", "unit", "", "moves")
	for _, d := range layerDefs {
		exact := ""
		if d.Exact {
			exact = "exact"
		}
		fmt.Fprintf(w, "  %-32s %16.6g %-12s %-6s %s\n", d.Name, res.layers[d.Name], d.Unit, exact, d.Moves)
	}
	path, err := r.tr.write(filepath.Join(r.work, "spans"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Fprintf(w, "  spans: %s\n", path)
	}
	printSelfTimes(w, selfTimes(r.tr.spans))
}

func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 4, 64)
	}
	return strings.Join(parts, " ")
}
