package main

import (
	"fmt"
	"math"
	"reflect"

	"repro/internal/core"
	"repro/internal/experiments"
)

// diffMetrics names the first field where two simulated windows differ,
// or returns "" when they are identical.
func diffMetrics(a, b core.Metrics) string {
	switch {
	case a.Kind != b.Kind:
		return fmt.Sprintf("Kind %v != %v", a.Kind, b.Kind)
	case a.Cycles != b.Cycles:
		return fmt.Sprintf("Cycles %d != %d", a.Cycles, b.Cycles)
	case a.Retired != b.Retired:
		return fmt.Sprintf("Retired %d != %d", a.Retired, b.Retired)
	case len(a.PerCoreRetired) != len(b.PerCoreRetired):
		return fmt.Sprintf("%d cores != %d", len(a.PerCoreRetired), len(b.PerCoreRetired))
	}
	for c := range a.PerCoreRetired {
		if a.PerCoreRetired[c] != b.PerCoreRetired[c] {
			return fmt.Sprintf("PerCoreRetired[%d] %d != %d", c, a.PerCoreRetired[c], b.PerCoreRetired[c])
		}
	}
	va, vb := reflect.ValueOf(a.Stats), reflect.ValueOf(b.Stats)
	for i := 0; i < va.NumField(); i++ {
		if x, y := va.Field(i).Uint(), vb.Field(i).Uint(); x != y {
			return fmt.Sprintf("Stats.%s %d != %d", va.Type().Field(i).Name, x, y)
		}
	}
	return ""
}

// diffSpans compares two timed phases sub-span by sub-span.
func diffSpans(want, got []core.Metrics) string {
	if len(want) != len(got) {
		return fmt.Sprintf("%d sub-spans != %d", len(want), len(got))
	}
	for i := range want {
		if d := diffMetrics(want[i], got[i]); d != "" {
			return fmt.Sprintf("sub-span %d: %s", i, d)
		}
	}
	return ""
}

// checkGeomean requires the SILO geomean to carry the pinned bits.
func checkGeomean(r experiments.CompareResult) error {
	got, err := r.Speedup("SILO")
	if err != nil {
		return err
	}
	if math.Float64bits(got) != math.Float64bits(pinnedSILOGeomean) {
		return fmt.Errorf("SILO geomean %v (bits %#x), pinned %v (bits %#x)",
			got, math.Float64bits(got), pinnedSILOGeomean, math.Float64bits(pinnedSILOGeomean))
	}
	return nil
}

// diffCompare compares two Fig 10 results bit for bit.
func diffCompare(a, b experiments.CompareResult) string {
	if !reflect.DeepEqual(a.Systems, b.Systems) || !reflect.DeepEqual(a.Workloads, b.Workloads) {
		return "different systems or workloads"
	}
	for w := range a.Norm {
		for s := range a.Norm[w] {
			if math.Float64bits(a.Norm[w][s]) != math.Float64bits(b.Norm[w][s]) {
				return fmt.Sprintf("%s on %s: %v != %v", a.Workloads[w], a.Systems[s], a.Norm[w][s], b.Norm[w][s])
			}
		}
	}
	for s := range a.Geomean {
		if math.Float64bits(a.Geomean[s]) != math.Float64bits(b.Geomean[s]) {
			return fmt.Sprintf("%s geomean: %v != %v", a.Systems[s], a.Geomean[s], b.Geomean[s])
		}
	}
	return ""
}
