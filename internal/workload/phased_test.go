package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/sim"
)

// TestSpecCheckDomains pins the Spec.Check hardening: every fraction
// field is held to [0,1] and the data-region fractions to sum <= 1 —
// the cases the historical sum-only Validate silently accepted.
func TestSpecCheckDomains(t *testing.T) {
	base := WebSearch()
	if err := base.Check(); err != nil {
		t.Fatalf("preset WebSearch fails Check: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"sum>1", func(s *Spec) { s.PrimaryFrac = 0.5; s.MiddleFrac = 0.3; s.SecondaryFrac = 0.3; s.RWSharedFrac = 0.1 }, "sum to"},
		{"negative middle hidden by sum", func(s *Spec) { s.MiddleFrac = -0.2 }, "MiddleFrac"},
		{"store>1", func(s *Spec) { s.StoreFrac = 1.3 }, "StoreFrac"},
		{"negative scan", func(s *Spec) { s.ScanFrac = -0.01 }, "ScanFrac"},
		{"remote>1", func(s *Spec) { s.RemoteProb = 1.5 }, "RemoteProb"},
		{"sharedwrite<0", func(s *Spec) { s.SharedWriteFrac = -1 }, "SharedWriteFrac"},
		{"indep>1", func(s *Spec) { s.IndepProb = 2 }, "IndepProb"},
		{"memratio=1", func(s *Spec) { s.MemRatio = 1 }, "MemRatio"},
		{"zero jump", func(s *Spec) { s.JumpEveryLines = 0 }, "JumpEveryLines"},
		{"zero mlp", func(s *Spec) { s.MLP = 0 }, "MLP"},
	}
	for _, tc := range cases {
		sp := base
		tc.mutate(&sp)
		err := sp.Check()
		if err == nil {
			t.Errorf("%s: Check accepted the bad spec", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", tc.name, err, tc.want)
		}
	}
}

// TestEverySuitePresetChecks keeps the compiled-in presets inside the
// hardened domains.
func TestEverySuitePresetChecks(t *testing.T) {
	all := append(ScaleOutSuite(), EnterpriseSuite()...)
	for _, name := range Spec2006Names() {
		all = append(all, Spec2006(name))
	}
	for _, s := range all {
		if err := s.Check(); err != nil {
			t.Errorf("preset %s: %v", s.Name, err)
		}
	}
}

// TestRetunePreservesWalkState: retuning to the same spec must not
// disturb the op sequence at all, and retuning to a different spec must
// keep cursors in range.
func TestRetunePreservesWalkState(t *testing.T) {
	a := NewStream(WebSearch(), 0, 4, 16, 7)
	b := NewStream(WebSearch(), 0, 4, 16, 7)
	var opA, opB Op
	for i := 0; i < 5000; i++ {
		nextOp(a, &opA)
		nextOp(b, &opB)
		if opA != opB {
			t.Fatalf("op %d diverged before retune", i)
		}
	}
	b.Retune(WebSearch()) // same spec: a no-op for the sequence
	for i := 0; i < 5000; i++ {
		nextOp(a, &opA)
		nextOp(b, &opB)
		if opA != opB {
			t.Fatalf("op %d diverged after same-spec retune", i)
		}
	}
	// Shrink the footprints hard; the stream must stay in range.
	small := WebSearch()
	small.InstrFootprint /= 64
	small.SecondaryWSS /= 64
	b.Retune(small)
	for i := 0; i < 5000; i++ {
		nextOp(b, &opB)
	}
	if b.scanCursor >= b.secondary {
		t.Fatalf("scan cursor %d outside shrunk secondary %d", b.scanCursor, b.secondary)
	}
	if off := int64(b.pc - instrBase); off < 0 || off >= b.instrFP {
		t.Fatalf("pc offset %d outside shrunk instruction footprint %d", off, b.instrFP)
	}
}

func testPhases() []Phase {
	burst := WebSearch()
	burst.Name = "WebSearch-burst"
	burst.MemRatio = 0.45
	burst.SecondaryWSS *= 2
	return []Phase{
		{Spec: WebSearch(), Arrival: Arrival{Process: ArrivalPoisson, MeanOps: 3000}},
		{Spec: burst, Arrival: Arrival{Process: ArrivalGamma, MeanOps: 1000, CV: 2}},
	}
}

// TestPhasedSplitInvariance is the scenario extension of the NextBatch
// determinism contract: the phased op sequence must be identical per-op
// (one-op refills), at any batch size, and across mixed batch sizes — phase
// boundaries land at op counts, so refill shape cannot move them.
func TestPhasedSplitInvariance(t *testing.T) {
	const total = 40000
	ref := NewPhased(testPhases(), 1, 4, 16, 42, 9, GroupOffset(3))
	want := make([]Op, total)
	for i := range want {
		nextOp(ref, &want[i])
	}
	for _, batch := range []int{1, 7, 16, 64, 1000} {
		p := NewPhased(testPhases(), 1, 4, 16, 42, 9, GroupOffset(3))
		got := make([]Op, 0, total)
		buf := make([]Op, batch)
		for len(got) < total {
			n := p.NextBatch(buf)
			got = append(got, buf[:n]...)
		}
		for i := 0; i < total; i++ {
			if got[i] != want[i] {
				t.Fatalf("batch %d: op %d = %+v, per-op path %+v", batch, i, got[i], want[i])
			}
		}
	}
	// The schedule must actually advance: with a 3000-op mean phase, a
	// fresh wrapper reaches phase 1 within a bounded number of ops.
	p := NewPhased(testPhases(), 1, 4, 16, 42, 9, GroupOffset(3))
	var op Op
	for i := 0; i < 200000 && p.idx == 0; i++ {
		nextOp(p, &op)
	}
	if p.idx != 1 {
		t.Fatal("phase schedule never advanced")
	}
}

// TestPhasedGroupOffsetIsolation: the same client in two different
// sharing groups emits the same op stream shifted by exactly the group
// offset, flags intact.
func TestPhasedGroupOffsetIsolation(t *testing.T) {
	p0 := NewPhased(testPhases(), 0, 2, 16, 1, 0, GroupOffset(0))
	p5 := NewPhased(testPhases(), 0, 2, 16, 1, 0, GroupOffset(5))
	delta := GroupOffset(5)
	var a, b Op
	for i := 0; i < 20000; i++ {
		nextOp(p0, &a)
		nextOp(p5, &b)
		if (a.IWord == 0) != (b.IWord == 0) || (a.DWord == 0) != (b.DWord == 0) {
			t.Fatalf("op %d: zero-word structure diverged", i)
		}
		if a.IWord != 0 {
			if b.IWord != a.IWord+delta {
				t.Fatalf("op %d: IWord %#x vs %#x (+%#x expected)", i, a.IWord, b.IWord, delta)
			}
			if a.Jump() != b.Jump() {
				t.Fatalf("op %d: jump flag changed by offset", i)
			}
		}
		if a.DWord != 0 {
			if uint64(b.Addr()) != uint64(a.Addr())+delta {
				t.Fatalf("op %d: addr %#x vs %#x", i, a.Addr(), b.Addr())
			}
			if a.Write() != b.Write() || a.RWShared() != b.RWShared() ||
				a.Independent() != b.Independent() || a.NonTemporal() != b.NonTemporal() {
				t.Fatalf("op %d: flags changed by offset", i)
			}
		}
	}
}

// TestPhasedSnapshotRoundTrip: a restored Phased continues the exact
// sequence, including across later phase switches.
func TestPhasedSnapshotRoundTrip(t *testing.T) {
	p := NewPhased(testPhases(), 2, 4, 16, 11, 3, GroupOffset(1))
	var op Op
	for i := 0; i < 12345; i++ {
		nextOp(p, &op)
	}
	var buf bytes.Buffer
	w := checkpoint.NewWriter(&buf)
	p.Checkpoint(checkpoint.NewEncoder(w))
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	restore := func(q *Phased) error {
		r := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		q.Checkpoint(checkpoint.NewDecoder(r))
		return r.Finish()
	}
	q := NewPhased(testPhases(), 2, 4, 16, 11, 3, GroupOffset(1))
	if err := restore(q); err != nil {
		t.Fatal(err)
	}
	var a, b Op
	for i := 0; i < 30000; i++ {
		nextOp(p, &a)
		nextOp(q, &b)
		if a != b {
			t.Fatalf("op %d diverged after restore", i)
		}
	}

	// Shape mismatches must be detected, not silently absorbed.
	if err := restore(NewPhased(testPhases(), 2, 4, 16, 11, 3, GroupOffset(2))); err == nil {
		t.Fatal("restore into a different group offset succeeded")
	}
}

// TestArrivalDraws pins the samplers' domains: positive, finite, and
// roughly centred on the requested mean.
func TestArrivalDraws(t *testing.T) {
	for _, proc := range []Arrival{
		{Process: ArrivalFixed, MeanOps: 500},
		{Process: ArrivalPoisson, MeanOps: 500},
		{Process: ArrivalGamma, MeanOps: 500, CV: 3},
		{Process: ArrivalWeibull, MeanOps: 500, Shape: 0.7},
	} {
		if err := proc.Check(); err != nil {
			t.Fatalf("%s: %v", proc.Process, err)
		}
		rng := sim.NewRNG(123)
		var sum float64
		const n = 20000
		for i := 0; i < n; i++ {
			d := proc.draw(rng)
			if d < 1 || float64(d) > maxPhaseOps {
				t.Fatalf("%s: draw %d out of range", proc.Process, d)
			}
			sum += float64(d)
		}
		mean := sum / n
		if mean < 300 || mean > 800 {
			t.Errorf("%s: empirical mean %.0f far from 500", proc.Process, mean)
		}
	}
	if err := (Arrival{Process: "pareto", MeanOps: 10}).Check(); err == nil {
		t.Error("unknown process accepted")
	}
	if err := (Arrival{Process: ArrivalFixed, MeanOps: 0}).Check(); err == nil {
		t.Error("zero mean accepted")
	}
	if err := (Arrival{Process: ArrivalGamma, MeanOps: 10, CV: -1}).Check(); err == nil {
		t.Error("negative cv accepted")
	}
}
