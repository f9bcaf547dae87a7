package main

import (
	"fmt"
	"sort"
	"time"
)

// tailMin is how many samples must lie beyond a percentile before the
// benchmark reports it: a p90 over 12 samples is one sample, not a tail.
const tailMin = 10

// percentileLadder lists the percentiles a summary may report, in
// per-mille so the samples-beyond count is integer arithmetic.
var percentileLadder = []int{500, 750, 900, 950, 990, 999}

// summary is how every timing is reported: the median, the sample count,
// and the highest ladder percentile with at least tailMin samples beyond
// it (TailPM 0 when there are too few samples for any).
type summary struct {
	N      int
	Median float64
	TailPM int
	Tail   float64
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	out := summary{N: len(s), Median: quantile(s, 0.5)}
	for _, pm := range percentileLadder {
		if beyond(pm, len(s)) >= tailMin {
			out.TailPM, out.Tail = pm, quantile(s, float64(pm)/1000)
		}
	}
	return out
}

// percentile is the q-quantile of unsorted xs, whatever its sample count.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// beyond is the number of n samples lying above the pm-per-mille
// percentile.
func beyond(pm, n int) int { return n * (1000 - pm) / 1000 }

// quantile interpolates linearly between the closest ranks of sorted
// (q in [0,1]); quantile(s, 0.5) is the usual median.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

func (s summary) String() string {
	if s.TailPM == 0 {
		return fmt.Sprintf("median of %d", s.N)
	}
	return fmt.Sprintf("median of %d, p%s %.6g", s.N, pmLabel(s.TailPM), s.Tail)
}

func pmLabel(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprint(pm / 10)
	}
	return fmt.Sprintf("%d.%d", pm/10, pm%10)
}

// spanRate is the instruction rate of a fixed simulated span split into
// sub-spans, in millions per wall second: total instructions over total
// wall time. The mean of the sub-span rates would overweight the fast
// sub-spans.
func spanRate(retired []uint64, wall []time.Duration) float64 {
	var instr uint64
	var ns time.Duration
	for i := range retired {
		instr += retired[i]
		ns += wall[i]
	}
	if ns <= 0 {
		return 0
	}
	return float64(instr) / ns.Seconds() / 1e6
}
