package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoPass is the offline reference: mean in one pass, centered sum of
// squares in a second. It is numerically stable, so it anchors the
// Welford differential even on catastrophic-cancellation inputs.
func twoPass(xs []float64) (mean, variance float64) {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / float64(len(xs))
	if len(xs) < 2 {
		return mean, math.NaN()
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, ss / float64(len(xs)-1)
}

func relClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale == 0 {
		return true
	}
	return math.Abs(a-b) <= tol*scale
}

// Property: Welford's online mean/variance match the two-pass reference
// on randomized inputs.
func TestWelfordMatchesTwoPassProperty(t *testing.T) {
	f := func(raw []int32) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		var w Welford
		for i, v := range raw {
			xs[i] = float64(v) / 7.0
			w.Add(xs[i])
		}
		mean, variance := twoPass(xs)
		return relClose(w.Mean(), mean, 1e-9) && relClose(w.Variance(), variance, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Catastrophic cancellation: observations of the form 1e9 + small, where
// a naive sum-of-squares accumulator (E[x²] - E[x]²) loses every
// significant digit of the variance. Welford must agree with the
// stable two-pass reference.
func TestWelfordCatastrophicCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5EED))
	const n = 10_000
	xs := make([]float64, n)
	var w Welford
	naiveSum, naiveSumSq := 0.0, 0.0
	for i := range xs {
		xs[i] = 1e9 + rng.Float64() // variance ~ 1/12, mean ~ 1e9 + 0.5
		w.Add(xs[i])
		naiveSum += xs[i]
		naiveSumSq += xs[i] * xs[i]
	}
	mean, variance := twoPass(xs)
	if !relClose(w.Mean(), mean, 1e-12) {
		t.Errorf("mean: welford %v vs two-pass %v", w.Mean(), mean)
	}
	if !relClose(w.Variance(), variance, 1e-6) {
		t.Errorf("variance: welford %v vs two-pass %v", w.Variance(), variance)
	}
	// Demonstrate the test has teeth: the naive accumulator really does
	// collapse on this input (if it happened to survive, the input isn't
	// catastrophic enough to pin anything).
	naiveVar := (naiveSumSq - naiveSum*naiveSum/n) / (n - 1)
	if relClose(naiveVar, variance, 1e-3) {
		t.Fatalf("naive sum-of-squares variance %v unexpectedly survived (reference %v); strengthen the input", naiveVar, variance)
	}
}

func TestWelfordMinMax(t *testing.T) {
	var w Welford
	if !math.IsNaN(w.Min()) || !math.IsNaN(w.Max()) || !math.IsNaN(w.Mean()) {
		t.Fatal("empty accumulator should report NaN")
	}
	for _, x := range []float64{3, -1, 7, 2, -1, 7} {
		w.Add(x)
	}
	if w.Min() != -1 || w.Max() != 7 {
		t.Fatalf("min/max = %v/%v, want -1/7", w.Min(), w.Max())
	}
	if w.N() != 6 {
		t.Fatalf("n = %d, want 6", w.N())
	}
}

// TQuantile against standard table values (two-sided 95% critical values
// are the ones the CI path uses).
func TestTQuantileTableValues(t *testing.T) {
	cases := []struct {
		p, df, want float64
	}{
		{0.975, 1, 12.7062047362},
		{0.975, 2, 4.3026527297},
		{0.975, 10, 2.2281388520},
		{0.975, 30, 2.0422724563},
		{0.975, 1000, 1.9623390808},
		{0.95, 5, 2.0150483733},
		{0.995, 7, 3.4994832974},
		{0.5, 12, 0},
	}
	for _, c := range cases {
		got := TQuantile(c.p, c.df)
		if math.Abs(got-c.want) > 1e-6 {
			t.Errorf("TQuantile(%v, %v) = %.10f, want %.10f", c.p, c.df, got, c.want)
		}
		// Symmetry: the lower-tail quantile is the negation.
		if c.p != 0.5 {
			if lo := TQuantile(1-c.p, c.df); math.Abs(lo+got) > 1e-9 {
				t.Errorf("TQuantile(%v, %v) = %v, want %v", 1-c.p, c.df, lo, -got)
			}
		}
	}
}

// TQuantile must be the inverse of TCDF across a parameter sweep.
func TestTQuantileInvertsCDF(t *testing.T) {
	for _, df := range []float64{1, 2, 3, 9, 29, 100, 5000} {
		for _, p := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.975, 0.999} {
			q := TQuantile(p, df)
			if back := TCDF(q, df); math.Abs(back-p) > 1e-9 {
				t.Errorf("TCDF(TQuantile(%v, %v)) = %v", p, df, back)
			}
		}
	}
}

func TestWelfordCI(t *testing.T) {
	// Constant observations: zero variance, interval collapses to the mean.
	var c Welford
	for i := 0; i < 50; i++ {
		c.Add(4.25)
	}
	if lo, hi := c.CI(0.95); lo != 4.25 || hi != 4.25 {
		t.Fatalf("constant CI = [%v, %v], want [4.25, 4.25]", lo, hi)
	}

	// Known sample: CI must match the textbook formula exactly.
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	mean, variance := twoPass(xs)
	half := TQuantile(0.975, float64(len(xs)-1)) * math.Sqrt(variance/float64(len(xs)))
	lo, hi := w.CI(0.95)
	if !relClose(lo, mean-half, 1e-9) || !relClose(hi, mean+half, 1e-9) {
		t.Fatalf("CI = [%v, %v], want [%v, %v]", lo, hi, mean-half, mean+half)
	}
	if !(lo <= w.Mean() && w.Mean() <= hi) {
		t.Fatalf("mean %v outside its own CI [%v, %v]", w.Mean(), lo, hi)
	}

	// One observation: degenerate interval, not NaN.
	var one Welford
	one.Add(3)
	if lo, hi := one.CI(0.95); lo != 3 || hi != 3 {
		t.Fatalf("single-observation CI = [%v, %v], want [3, 3]", lo, hi)
	}
}

// Property: WindowEmitter deltas are exactly the snapshot-subtract deltas
// for any monotone cumulative counter sequence.
func TestWindowEmitterMatchesSnapshotSubtract(t *testing.T) {
	f := func(incs [][3]uint16) bool {
		if len(incs) == 0 {
			return true
		}
		em := NewWindowEmitter("a", "b", "c")
		cum := make([]uint64, 3)
		em.Prime(cum)
		// Reference path: retain every snapshot, subtract at the end.
		snaps := [][]uint64{append([]uint64(nil), cum...)}
		for _, inc := range incs {
			for i := range cum {
				cum[i] += uint64(inc[i])
			}
			got := em.Emit(cum)
			snaps = append(snaps, append([]uint64(nil), cum...))
			prev, cur := snaps[len(snaps)-2], snaps[len(snaps)-1]
			for i := range cum {
				want := cur[i] - prev[i]
				if got[i] != want {
					return false
				}
			}
		}
		return em.Windows() == uint64(len(incs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// The per-window emit path must not allocate: paper-scale sweeps emit
// millions of windows.
func TestWindowEmitterEmitAllocsZero(t *testing.T) {
	em := NewWindowEmitter("a", "b", "c", "d")
	cum := make([]uint64, 4)
	em.Prime(cum)
	allocs := testing.AllocsPerRun(1000, func() {
		for i := range cum {
			cum[i] += 17
		}
		em.Emit(cum)
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %v per window, want 0", allocs)
	}
}

func TestWindowEmitterPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("no metrics", func() { NewWindowEmitter() })
	mustPanic("emit before prime", func() {
		NewWindowEmitter("a").Emit([]uint64{1})
	})
	mustPanic("length mismatch", func() {
		em := NewWindowEmitter("a", "b")
		em.Prime([]uint64{1})
	})
	mustPanic("decreasing counter", func() {
		em := NewWindowEmitter("a")
		em.Prime([]uint64{5})
		em.Emit([]uint64{4})
	})
}
