package main

import (
	"bytes"
	"strings"
	"testing"
)

// silosim resolves system names with the grid spec's resolver, so the
// name it prints for a system is one it accepts back.
func TestSystemNameRoundTrips(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-system", "Baseline+DRAM$", "-cores", "4", "-warm-instr", "2000", "-warm-cycles", "200", "-measure-cycles", "1000"}
	if code := run(args, &out); code != 0 {
		t.Fatalf("run(%q) exited %d", args, code)
	}
	if want := "system=Baseline+DRAM$ workload=WebSearch cores=4\n"; !strings.HasPrefix(out.String(), want) {
		t.Fatalf("output starts %q, want %q", out.String(), want)
	}
}

// A zero-length measurement window is a usage error, for one system and
// for -system all alike, caught before anything is simulated.
func TestZeroMeasureCyclesRejected(t *testing.T) {
	for _, system := range []string{"silo", "all"} {
		var out bytes.Buffer
		args := []string{"-system", system, "-measure-cycles", "0"}
		if code := run(args, &out); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) exited %d with output %q; want exit 2 and no output", args, code, out.String())
		}
	}
}
