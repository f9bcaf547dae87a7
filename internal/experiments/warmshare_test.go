package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/workload"
)

// TestWarmKeyCovers: a warm-up key that missed an input of the sources
// would hand one workload's warm-up to another, and one that held a
// hierarchy parameter would stop the systems of a workload sharing it.
// Every workload.Spec field (walked with reflect, so a new field cannot
// be missed), cores, scale, seed, warm length and a scenario's digest
// must change the key; the system's kind, caches, protocol, latencies
// and Fig 12 optimizations must not.
func TestWarmKeyCovers(t *testing.T) {
	base := core.SILOConfig(16)
	base.Scale = 32
	spec := workload.WebSearch()
	const instr = 300_000
	want := warmKey(base, []workload.Spec{spec}, nil, instr)

	sv := reflect.ValueOf(spec)
	for i := 0; i < sv.NumField(); i++ {
		sp := spec
		f := reflect.ValueOf(&sp).Elem().Field(i)
		switch f.Kind() {
		case reflect.String:
			f.SetString(f.String() + "x")
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float()*1.5 + 0.001)
		case reflect.Bool:
			f.SetBool(!f.Bool())
		default:
			t.Fatalf("Spec.%s: no perturbation for kind %v", sv.Type().Field(i).Name, f.Kind())
		}
		if warmKey(base, []workload.Spec{sp}, nil, instr) == want {
			t.Errorf("changing Spec.%s leaves the warm-up key unchanged", sv.Type().Field(i).Name)
		}
	}

	scen := testScenario(t, testScenarioSpec)
	other := testScenario(t, strings.Replace(testScenarioSpec, "mean_ops: 3000", "mean_ops: 3001", 1))
	changes := map[string]string{
		"cores":       warmKey(core.SILOConfig(8), []workload.Spec{spec}, nil, instr),
		"scale":       warmKey(with(base, func(c *core.Config) { c.Scale = 16 }), []workload.Spec{spec}, nil, instr),
		"seed":        warmKey(with(base, func(c *core.Config) { c.Seed++ }), []workload.Spec{spec}, nil, instr),
		"warm length": warmKey(base, []workload.Spec{spec}, nil, instr+1),
		"scenario":    warmKey(base, nil, scen, instr),
		"digest":      warmKey(base, nil, other, instr),
	}
	for name, k := range changes {
		if k == want || name == "digest" && k == changes["scenario"] {
			t.Errorf("changing the %s leaves the warm-up key unchanged", name)
		}
	}

	same := map[string]core.Config{
		"kind Baseline":      with(base, func(c *core.Config) { c.Kind = core.Baseline }),
		"kind Vaults-Sh":     with(base, func(c *core.Config) { c.Kind = core.VaultsShared }),
		"LLC size":           with(base, func(c *core.Config) { c.LLCSize *= 2 }),
		"LLC ways":           with(base, func(c *core.Config) { c.LLCWays *= 2 }),
		"vault size":         with(base, func(c *core.Config) { c.VaultCapacity *= 2 }),
		"vault ways":         with(base, func(c *core.Config) { c.VaultWays = 4 }),
		"protocol":           with(base, func(c *core.Config) { c.Protocol++ }),
		"L2":                 base.WithL2(),
		"L2 latency":         with(base, func(c *core.Config) { c.L2Latency++ }),
		"LLC bank latency":   with(base, func(c *core.Config) { c.LLCBankLatency++ }),
		"LLC extra latency":  with(base, func(c *core.Config) { c.LLCExtraLatency++ }),
		"LLC overhead":       with(base, func(c *core.Config) { c.LLCFixedOverhead++ }),
		"RW-shared mult":     with(base, func(c *core.Config) { c.RWSharedMult++ }),
		"hop latency":        with(base, func(c *core.Config) { c.HopLatency++ }),
		"vault timing":       with(base, func(c *core.Config) { c.VaultTiming.ArrayCycles++ }),
		"DirectoryCache":     with(base, func(c *core.Config) { c.DirectoryCache = !c.DirectoryCache }),
		"LocalMissPredictor": with(base, func(c *core.Config) { c.LocalMissPredictor = !c.LocalMissPredictor }),
	}
	for name, cfg := range same {
		if warmKey(cfg, []workload.Spec{spec}, nil, instr) != want {
			t.Errorf("changing the %s changes the warm-up key", name)
		}
	}
}

// with returns cfg changed by f.
func with(cfg core.Config, f func(*core.Config)) core.Config {
	f(&cfg)
	return cfg
}

// warmTestMode keeps the table tests small enough for -race.
func warmTestMode() Mode {
	return Mode{Name: "warm-table-test", WarmInstr: 4_001, WarmCycles: 500, MeasureCycles: 3_000, Scale: 64}
}

// warmTestCells is a 12-cell sweep over three shared warm-up keys (4, 4
// and 3 cells, each a workload on several systems) and one unshared key
// (SATSolver), contiguous per key as a figure's cells are.
func warmTestCells() []Cell {
	systems := []core.Config{core.BaselineConfig(4), core.SILOConfig(4), core.VaultsSharedConfig(4), core.SILOCOConfig(4)}
	var cells []Cell
	for _, w := range []struct {
		spec    workload.Spec
		systems int
	}{{workload.WebSearch(), 4}, {workload.DataServing(), 4}, {workload.MapReduce(), 3}, {workload.SATSolver(), 1}} {
		for _, cfg := range systems[:w.systems] {
			cells = append(cells, cell(fmt.Sprintf("warm/%s/%s", w.spec.Name, cfg.Kind), cfg, w.spec))
		}
	}
	return cells
}

// warmTableFor builds cells' warm-up keys and table as RunCells does,
// with the table's recorder wrapped by wrap.
func warmTableFor(cells []Cell, m Mode, wrap func(rec func([]workload.Source, int) *core.WarmTrace) func([]workload.Source, int) *core.WarmTrace) (*warmTable, []string) {
	keys := make([]string, len(cells))
	for i, c := range cells {
		keys[i] = warmKey(c.config(m), c.Specs, nil, m.WarmInstr)
	}
	tab := newWarmTable(keys, poolWorkers(len(cells), m.Parallelism))
	tab.record = wrap(tab.record)
	return tab, keys
}

// TestWarmTableSharesRecordings: at parallelism 1, 2 and 8 a 12-cell
// sweep records each of its three shared keys exactly once and never its
// unshared one, keeps no more traces alive than it has workers, and
// gives metrics identical to every cell warming inline.
func TestWarmTableSharesRecordings(t *testing.T) {
	cells := warmTestCells()
	m := warmTestMode()
	m.Parallelism = 1
	want := runCells(cells, m, nil, make([]string, len(cells)))
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			m := warmTestMode()
			m.Parallelism = workers
			var mu sync.Mutex
			recorded := map[string]int{}
			tab, keys := warmTableFor(cells, m, func(rec func([]workload.Source, int) *core.WarmTrace) func([]workload.Source, int) *core.WarmTrace {
				return func(srcs []workload.Source, n int) *core.WarmTrace {
					mu.Lock()
					recorded[srcs[0].Spec().Name]++
					mu.Unlock()
					return rec(srcs, n)
				}
			})
			got := runCells(cells, m, tab, keys)
			if !reflect.DeepEqual(got, want) {
				t.Fatal("metrics differ from the inline warm-up's")
			}
			if fmt.Sprint(recorded) != "map[DataServing:1 MapReduce:1 WebSearch:1]" {
				t.Fatalf("recordings %v, want each shared key once and SATSolver never", recorded)
			}
			if tab.maxLive > workers || tab.live != 0 || tab.free != workers {
				t.Fatalf("traces alive: at most %d, at the end %d with %d slots free; want at most %d, then none", tab.maxLive, tab.live, tab.free, workers)
			}
		})
	}
}

// TestWarmTableRecordingPanic: a recording that panics releases the cells
// waiting for it, which warm inline, and the panic surfaces on the caller
// naming the recording cell; the pool winds down leak-free.
func TestWarmTableRecordingPanic(t *testing.T) {
	cells := warmTestCells()
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			checkGoroutineLeaks(t)
			m := warmTestMode()
			m.Parallelism = workers
			tab, keys := warmTableFor(cells, m, func(rec func([]workload.Source, int) *core.WarmTrace) func([]workload.Source, int) *core.WarmTrace {
				return func(srcs []workload.Source, n int) *core.WarmTrace {
					if srcs[0].Spec().Name == "DataServing" {
						// Long enough for the key's other cells, at 8
						// workers, to build, Prewarm and wait. The
						// checks hold either way: a cell that begins
						// after the failure warms inline at once.
						time.Sleep(100 * time.Millisecond)
						panic("boom recording DataServing")
					}
					return rec(srcs, n)
				}
			})
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				runCells(cells, m, tab, keys)
				return ""
			}()
			if !strings.Contains(msg, "boom recording DataServing") || !strings.Contains(msg, `cell "warm/DataServing/`) {
				t.Fatalf("panic did not surface from the recording cell: %q", msg)
			}
			// The failed recording released its waiters and gave its slot
			// back, keeping no trace.
			e := tab.keys[keys[4]] // cells 4-7 run DataServing
			select {
			case <-e.ready:
			default:
				t.Fatal("the failed recording never released its waiters")
			}
			if e.slot || e.trace != nil {
				t.Fatal("the failed recording kept its slot")
			}
		})
	}
}
