package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/workload"
)

// Scenario cells ride the same grid engine as workload cells, so every
// determinism contract — byte-identity across parallelism and
// checkpoint restore — must extend to them unchanged. These tests are
// the package-level half of that contract; the CI scenario smoke covers
// the CLI-level half.

// testScenarioSpec is a two-client consolidation: a phased web tier and
// a steady batch job sharing group 0 (one address space) on 16 cores.
const testScenarioSpec = `name: consolidation-test
clients:
  - id: web
    cores: 0-9
    group: 0
    phases:
      - workload: WebSearch
        arrival: {process: poisson, mean_ops: 3000}
      - workload: WebSearch
        mem_ratio_scale: 1.4
        arrival: {process: gamma, mean_ops: 1500, cv: 2}
  - id: batch
    cores: rest
    group: 0
    workload: MapReduce
`

func testScenario(t *testing.T, spec string) *scenario.Scenario {
	t.Helper()
	s, err := scenario.Parse([]byte(spec), WorkloadByName, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// scenarioGrid mixes scenario and workload cells so the tests also pin
// enumeration order and the coexistence of both cell kinds in one sweep.
func scenarioGrid(t *testing.T) GridSpec {
	return GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16), core.SILOConfig(16)},
		Workloads: []workload.Spec{workload.WebSearch()},
		Scenarios: []*scenario.Scenario{testScenario(t, testScenarioSpec)},
		Windows:   2,
	}
}

// TestScenarioGridDeterminism: byte-identical records (modulo wall_ms,
// zeroed by jsonLines) across parallelism 1/5, since scenario sources
// ride the same batch-refill seam.
func TestScenarioGridDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g, m := scenarioGrid(t), faultMode()
	m.Parallelism = 1
	want := jsonLines(collectGrid(t, g, m))
	if !bytes.Contains(want, []byte(`"workload":"scenario:consolidation-test"`)) {
		t.Fatal("no scenario cells in the sweep output")
	}
	for _, par := range []int{1, 5} {
		vm := m
		vm.Parallelism = par
		if got := jsonLines(collectGrid(t, g, vm)); !bytes.Equal(got, want) {
			t.Fatalf("parallel=%d scenario grid diverged", par)
		}
	}
}

// TestScenarioCheckpointRestoreDifferential: a scenario sweep with a
// warm-state checkpoint dir — cold save pass, then restore pass — emits
// records byte-identical to a no-checkpoint run, and the second pass
// actually restores.
func TestScenarioCheckpointRestoreDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	g, m := scenarioGrid(t), faultMode()
	want := jsonLines(collectGrid(t, g, m))

	var stats CheckpointStats
	cm := m
	cm.CheckpointDir = t.TempDir()
	cm.Checkpoints = &stats
	if got := jsonLines(collectGrid(t, g, cm)); !bytes.Equal(got, want) {
		t.Fatal("cold checkpoint-saving sweep diverged from the plain sweep")
	}
	if stats.Saves.Load() == 0 {
		t.Fatal("cold pass saved no checkpoints")
	}
	if got := jsonLines(collectGrid(t, g, cm)); !bytes.Equal(got, want) {
		t.Fatal("restored sweep diverged from the plain sweep")
	}
	if stats.Hits.Load() == 0 {
		t.Fatal("second pass restored nothing — scenario checkpoint keys never hit")
	}
}

// TestScenarioJournalKeys: two scenarios with the same name but
// different content must key differently (the digest, not the name,
// carries identity), while workload cells keep digest-free keys.
func TestScenarioJournalKeys(t *testing.T) {
	m := faultMode()
	g1 := scenarioGrid(t)
	g2 := scenarioGrid(t)
	g2.Scenarios = []*scenario.Scenario{
		testScenario(t, strings.Replace(testScenarioSpec, "mean_ops: 1500", "mean_ops: 1600", 1)),
	}
	k1, err := GridCellKeys(g1, m)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := GridCellKeys(g2, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(k1) != g1.Cells() || g1.Cells() != 4 {
		t.Fatalf("%d keys for %d cells", len(k1), g1.Cells())
	}
	// Cells enumerate workloads before scenarios per system: indices 0/2
	// are WebSearch cells (identical grids → identical keys), 1/3 the
	// scenario cells (same name, different content → different keys).
	for _, i := range []int{0, 2} {
		if k1[i] != k2[i] {
			t.Errorf("workload cell %d key moved with an unrelated scenario edit", i)
		}
	}
	for _, i := range []int{1, 3} {
		if k1[i] == k2[i] {
			t.Errorf("scenario cell %d key ignored the content digest", i)
		}
	}

	// And the checkpoint key moves with the digest too.
	cfg := core.SILOConfig(16)
	ck1 := ScenarioCheckpointKey(cfg, g1.Scenarios[0], m.WarmInstr)
	ck2 := ScenarioCheckpointKey(cfg, g2.Scenarios[0], m.WarmInstr)
	if ck1 == ck2 {
		t.Error("scenario checkpoint key ignored the content digest")
	}
}

// TestScenarioSystemMismatch: a scenario that does not cover the
// system's cores fails the cell (fail-fast error path) rather than
// silently mis-binding.
func TestScenarioSystemMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation experiment")
	}
	s := testScenario(t, "name: narrow\nclients:\n  - id: a\n    cores: 0-3\n    workload: WebSearch\n")
	g := GridSpec{
		Systems:   []core.Config{core.BaselineConfig(16)},
		Scenarios: []*scenario.Scenario{s},
		Windows:   1,
	}
	_, err := collectOpts(t, context.Background(), g, faultMode(), GridOptions{})
	if err == nil {
		t.Fatal("4-core scenario on a 16-core system did not fail")
	}
	if !strings.Contains(err.Error(), "core 4 is bound to no client") {
		t.Fatalf("error %v does not name the uncovered core", err)
	}
}
