package main

import (
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: summarize must sort
	}
	return xs
}

func TestSummarizeMedianAndSampleCount(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		median float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{seq(101), 51},
	} {
		s := summarize(tc.xs)
		if s.N != len(tc.xs) || s.Median != tc.median {
			t.Errorf("summarize(%v) = n %d median %v, want n %d median %v", tc.xs, s.N, s.Median, len(tc.xs), tc.median)
		}
	}
	if s := summarize(nil); s.N != 0 {
		t.Errorf("summarize(nil).N = %d", s.N)
	}
}

// The reported tail is the highest ladder percentile with at least ten
// samples beyond it, and none below twenty samples.
func TestSummarizeTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		wantPM int
	}{
		{3, 0},
		{19, 0},
		{20, 500},
		{39, 500},
		{40, 750},
		{99, 750}, // 9 samples beyond p90: not enough
		{100, 900},
		{199, 900},
		{200, 950},
		{1000, 990},
		{10000, 999},
	} {
		s := summarize(seq(tc.n))
		if s.TailPM != tc.wantPM {
			t.Errorf("n=%d: tail p%s, want p%s", tc.n, pmLabel(s.TailPM), pmLabel(tc.wantPM))
			continue
		}
		if tc.wantPM != 0 && beyond(s.TailPM, tc.n) < tailMin {
			t.Errorf("n=%d: only %d samples beyond p%s", tc.n, beyond(s.TailPM, tc.n), pmLabel(s.TailPM))
		}
	}
	// 1..100: p90 interpolates between the 90th and 91st values.
	if s := summarize(seq(100)); math.Abs(s.Tail-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", s.Tail)
	}
	if got := summarize(seq(100)).String(); got != "median of 100, p90 90.1" {
		t.Errorf("String() = %q", got)
	}
	if got := summarize(seq(3)).String(); got != "median of 3" {
		t.Errorf("String() = %q", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{10, 0, 5}
	for _, tc := range []struct{ q, want float64 }{{0, 0}, {0.5, 5}, {0.75, 7.5}, {1, 10}} {
		if got := percentile(xs, tc.q); got != tc.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

// The rate of a fixed span is total instructions over total wall time,
// not the mean of the sub-span rates.
func TestSpanRateIsAggregate(t *testing.T) {
	retired := []uint64{1_000_000, 1_000_000}
	wall := []time.Duration{100 * time.Millisecond, 400 * time.Millisecond}
	// 2M instructions in 0.5 s = 4 MIPS; the mean of 10 and 2.5 MIPS
	// would be 6.25.
	if got := spanRate(retired, wall); math.Abs(got-4) > 1e-12 {
		t.Errorf("spanRate = %v MIPS, want 4", got)
	}
	if got := spanRate(nil, nil); got != 0 {
		t.Errorf("spanRate of an empty span = %v, want 0", got)
	}
	op := cellOp{wall: wall}
	for _, r := range retired {
		op.spans = append(op.spans, metricsWith(r))
	}
	if got := op.mips(); math.Abs(got-4) > 1e-12 {
		t.Errorf("cellOp.mips = %v, want 4", got)
	}
}
