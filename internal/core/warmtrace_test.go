package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/coherence"
	"repro/internal/workload"
)

// replaySetup is one TestReplayMatchesInline system: its config and a
// constructor of fresh sources, called once per system and once for
// the recording.
type replaySetup struct {
	cfg     Config
	sources func() []workload.Source
}

// replaySetups: every kind under both protocols, with and without an
// L2, on WebSearch and MapReduce at Scale 32; and SILO and Baseline on a
// scenario whose clients sit in sharing groups 0 and 15 beside a trace
// replay.
func replaySetups() map[string]replaySetup {
	setups := map[string]replaySetup{}
	for _, kind := range allKinds() {
		for _, proto := range []coherence.Protocol{coherence.MOESI, coherence.MESI} {
			for _, l2 := range []bool{false, true} {
				for _, spec := range []workload.Spec{workload.WebSearch(), workload.MapReduce()} {
					cfg := quickConfig(kind)
					cfg.Scale, cfg.Protocol = 32, proto
					if l2 {
						cfg = cfg.WithL2()
					}
					name := fmt.Sprintf("%s/%v/l2=%v/%s", kind, proto, l2, spec.Name)
					setups[name] = replaySetup{cfg, func() []workload.Source {
						return SpecSources(cfg, []workload.Spec{spec})
					}}
				}
			}
		}
	}
	for _, kind := range []Kind{SILO, Baseline} {
		cfg := quickConfig(kind)
		cfg.Scale = 32
		setups[fmt.Sprintf("%s/scenario", kind)] = replaySetup{cfg, func() []workload.Source {
			return groupTraceSources(cfg)
		}}
	}
	return setups
}

// groupTraceSources is a 4-core scenario: a phased client in sharing
// group 0 on cores 0-1, another in group 15 on core 2, and a trace
// replay in group 1 on core 3.
func groupTraceSources(cfg Config) []workload.Source {
	phases := []workload.Phase{
		{Spec: workload.WebSearch(), Arrival: workload.Arrival{Process: workload.ArrivalPoisson, MeanOps: 1500}},
		{Spec: workload.DataServing(), Arrival: workload.Arrival{MeanOps: 1000}},
	}
	rec := workload.NewStream(workload.MapReduce(), 0, 1, cfg.Scale, 9)
	ops := make([]workload.Op, 5_000)
	rec.NextBatch(ops)
	return []workload.Source{
		workload.NewPhased(phases, 0, 2, cfg.Scale, cfg.Seed, 0, workload.GroupOffset(0)),
		workload.NewPhased(phases, 1, 2, cfg.Scale, cfg.Seed, 0, workload.GroupOffset(0)),
		workload.NewPhased(phases[1:], 0, 1, cfg.Scale, cfg.Seed, 1, workload.GroupOffset(15)),
		workload.NewTraceSource("mapreduce", 2, ops, workload.GroupOffset(1), 0),
	}
}

// systemImage is the checkpoint image of a warmed, unstarted system.
func systemImage(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	if err := sys.Checkpoint(w); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// windows measures two windows, copying each out of the stream's reused
// Metrics.
func windows(sys *System) []Metrics {
	ws := sys.StreamWindows(2_000, 6_000)
	out := make([]Metrics, 2)
	for i := range out {
		out[i] = *ws.Next()
		out[i].PerCoreRetired = append([]uint64(nil), out[i].PerCoreRetired...)
	}
	return out
}

// TestReplayMatchesInline is the shared warm-up's differential: a system
// warmed by replaying a recorded warm-up must match one warmed inline —
// healthy invariants, byte-identical checkpoint images (caches,
// directories, stats and the sources' state) and equal metrics over the
// next two windows — for warm lengths around the round granule.
func TestReplayMatchesInline(t *testing.T) {
	for name, su := range replaySetups() {
		for _, n := range []int{0, warmChunk - 1, warmChunk, warmChunk + 1} {
			t.Run(fmt.Sprintf("%s/warm=%d", name, n), func(t *testing.T) {
				t.Parallel()
				inline := NewSystemFromSources(su.cfg, su.sources())
				inline.Prewarm()
				inline.WarmFunctional(n)

				tr := RecordWarmup(su.sources(), n)
				replayed := NewSystemFromSources(su.cfg, su.sources())
				replayed.Prewarm()
				replayed.ReplayWarmup(tr)

				for _, sys := range []*System{inline, replayed} {
					if msg := sys.CheckInvariants(); msg != "" {
						t.Fatalf("invariants: %s", msg)
					}
				}
				if !bytes.Equal(systemImage(t, inline), systemImage(t, replayed)) {
					t.Fatal("checkpoint images differ")
				}
				if a, b := windows(inline), windows(replayed); !reflect.DeepEqual(a, b) {
					t.Fatalf("windows differ:\ninline   %+v\nreplayed %+v", a, b)
				}
			})
		}
	}
}

// TestWarmTraceSize pins what a recording holds: one word per nonzero
// IWord and DWord of the generated ops, at a few bytes each.
func TestWarmTraceSize(t *testing.T) {
	cfg := SILOConfig(4)
	cfg.Scale = 32
	specs := []workload.Spec{workload.WebSearch()}
	const n = 5 * warmChunk
	var words uint64
	for _, src := range SpecSources(cfg, specs) {
		ops := make([]workload.Op, n)
		src.NextBatch(ops)
		for _, op := range ops {
			if op.IWord != 0 {
				words++
			}
			if op.DWord != 0 {
				words++
			}
		}
	}
	tr := RecordWarmup(SpecSources(cfg, specs), n)
	if tr.Words() != words {
		t.Fatalf("trace holds %d words, the ops have %d", tr.Words(), words)
	}
	if per := float64(tr.Bytes()) / float64(words); per > 4 {
		t.Fatalf("%.2f bytes per word, want at most 4", per)
	}
}

// TestReplayRejectsOtherCoreCount: a trace replays only into a system of
// the core count it was recorded for.
func TestReplayRejectsOtherCoreCount(t *testing.T) {
	cfg := SILOConfig(4)
	cfg.Scale = 64
	tr := RecordWarmup(SpecSources(cfg, []workload.Spec{workload.WebSearch()}), 10)
	cfg8 := SILOConfig(8)
	cfg8.Scale = 64
	sys := NewSystem(cfg8, []workload.Spec{workload.WebSearch()})
	defer func() {
		if recover() == nil {
			t.Fatal("replaying a 4-core trace into 8 cores did not panic")
		}
	}()
	sys.ReplayWarmup(tr)
}
