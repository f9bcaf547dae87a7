package stats

import (
	"fmt"
	"math"
)

// This file is the streaming half of the package: online accumulators that
// summarize an unbounded sequence of per-window observations in O(1)
// memory, so paper-scale multi-window sweeps never retain per-window
// history. The determinism contract (DESIGN.md §9): accumulators are pure
// functions of the observation sequence, so any two runs that produce the
// same windows produce bit-identical summaries.

// Welford is an online mean/variance accumulator (Welford 1962) with
// streaming min/max. The zero value is ready to use. Add is O(1) and
// allocation-free; the state is three floats plus the extrema, regardless
// of how many observations stream through.
type Welford struct {
	n        uint64
	mean, m2 float64
	min, max float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of observations added.
func (w *Welford) N() uint64 { return w.n }

// Mean returns the running mean (NaN before any observation).
func (w *Welford) Mean() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.mean
}

// Variance returns the sample (n-1) variance (NaN below two observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return math.NaN()
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (NaN before any observation).
func (w *Welford) Min() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.min
}

// Max returns the largest observation (NaN before any observation).
func (w *Welford) Max() float64 {
	if w.n == 0 {
		return math.NaN()
	}
	return w.max
}

// CI returns the two-sided Student-t confidence interval of the mean at
// the given confidence level (e.g. 0.95). With fewer than two
// observations the interval degenerates to [mean, mean] — there is no
// variance estimate to widen it with.
func (w *Welford) CI(confidence float64) (lo, hi float64) {
	if confidence <= 0 || confidence >= 1 {
		panic(fmt.Sprintf("stats: confidence %v outside (0,1)", confidence))
	}
	m := w.Mean()
	if w.n < 2 {
		return m, m
	}
	half := TQuantile(1-(1-confidence)/2, float64(w.n-1)) * math.Sqrt(w.Variance()/float64(w.n))
	return m - half, m + half
}

// --- Student-t quantile ---------------------------------------------------

// TQuantile returns the p-quantile of the Student-t distribution with df
// degrees of freedom (the critical value t such that P(T <= t) = p). It
// inverts the exact CDF by bisection, so it is deterministic and accurate
// to ~1e-12 — no lookup tables, no external dependencies.
func TQuantile(p, df float64) float64 {
	if !(p > 0 && p < 1) {
		panic(fmt.Sprintf("stats: t quantile of p=%v outside (0,1)", p))
	}
	if !(df > 0) {
		panic(fmt.Sprintf("stats: t quantile with df=%v <= 0", df))
	}
	if p == 0.5 {
		return 0
	}
	if p < 0.5 {
		return -TQuantile(1-p, df)
	}
	// Bracket: grow hi until the CDF passes p.
	lo, hi := 0.0, 1.0
	for TCDF(hi, df) < p {
		lo = hi
		hi *= 2
		if hi > 1e300 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			break // bisection converged to adjacent floats
		}
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TCDF returns P(T <= t) for the Student-t distribution with df degrees of
// freedom, via the regularized incomplete beta function.
func TCDF(t, df float64) float64 {
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	tail := 0.5 * regIncBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - tail
	}
	return tail
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// with the continued-fraction expansion (Numerical Recipes §6.4).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(lab - la - lb + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

// betacf is the continued fraction for regIncBeta, evaluated with Lentz's
// method.
func betacf(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-16
		fpmin   = 1e-300
	)
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm, m2 := float64(m), float64(2*m)
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// --- Windowed emission ----------------------------------------------------

// WindowEmitter converts cumulative monotonically increasing counters into
// per-window deltas. It replaces the snapshot-subtract pattern (retain a
// Stats copy per window, subtract at the end) with incremental emission:
// memory is O(1) per metric — previous cumulative value and reusable
// delta buffer — regardless of how many windows stream through.
//
// Because each window's delta is the exact integer subtraction
// cum[w] - cum[w-1], the emitted sequence is bit-identical to what
// per-window snapshot subtraction produces (DESIGN.md §9).
type WindowEmitter struct {
	names   []string
	prev    []uint64
	delta   []uint64
	windows uint64
	primed  bool
}

// NewWindowEmitter creates an emitter for the named metrics. Counter
// slices passed to Prime and Emit must use the same order and length.
func NewWindowEmitter(names ...string) *WindowEmitter {
	if len(names) == 0 {
		panic("stats: window emitter with no metrics")
	}
	return &WindowEmitter{
		names: names,
		prev:  make([]uint64, len(names)),
		delta: make([]uint64, len(names)),
	}
}

// Prime records the cumulative counter values at the start of the first
// window (typically after warm-up, so warm-up pollutes nothing).
func (e *WindowEmitter) Prime(cum []uint64) {
	e.checkLen(cum)
	copy(e.prev, cum)
	e.primed = true
}

// Emit closes one window: it computes the per-metric deltas since the
// previous Prime/Emit and returns the delta slice. The returned slice is
// reused by the next Emit — callers that need to retain it must copy.
// Emit is allocation-free.
func (e *WindowEmitter) Emit(cum []uint64) []uint64 {
	e.checkLen(cum)
	if !e.primed {
		panic("stats: window emitter Emit before Prime")
	}
	for i, c := range cum {
		p := e.prev[i]
		if c < p {
			panic("stats: window emitter counter " + e.names[i] + " decreased")
		}
		e.delta[i] = c - p
		e.prev[i] = c
	}
	e.windows++
	return e.delta
}

// Windows returns the number of windows emitted so far.
func (e *WindowEmitter) Windows() uint64 { return e.windows }

func (e *WindowEmitter) checkLen(cum []uint64) {
	if len(cum) != len(e.names) {
		panic(fmt.Sprintf("stats: window emitter got %d counters, want %d", len(cum), len(e.names)))
	}
}
