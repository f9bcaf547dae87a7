package noc

import (
	"testing"
	"testing/quick"
)

// TestCoordRoundTrip: Coord lays nodes out row-major, each inside the
// mesh.
func TestCoordRoundTrip(t *testing.T) {
	m := New(4, 2, 3)
	for n := 0; n < m.Nodes(); n++ {
		x, y := m.Coord(n)
		if x < 0 || x >= m.Width || y < 0 || y >= m.Height || y*m.Width+x != n {
			t.Fatalf("Coord(%d) = (%d,%d)", n, x, y)
		}
	}
}

func TestHopsKnownValues(t *testing.T) {
	m := New(4, 4, 3)
	cases := []struct{ from, to, hops int }{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 15, 6}, // corner to corner: 3 + 3
		{5, 10, 2}, // (1,1) -> (2,2)
		{3, 12, 6},
	}
	for _, c := range cases {
		if got := m.Hops(c.from, c.to); got != c.hops {
			t.Errorf("Hops(%d,%d) = %d, want %d", c.from, c.to, got, c.hops)
		}
	}
}

func TestLatencyScalesWithHopLatency(t *testing.T) {
	m := New(4, 4, 3)
	if m.Latency(0, 15) != 18 {
		t.Fatalf("Latency(0,15) = %d, want 18", m.Latency(0, 15))
	}
	if m.RoundTrip(0, 15) != 36 {
		t.Fatalf("RoundTrip(0,15) = %d, want 36", m.RoundTrip(0, 15))
	}
	if m.Latency(7, 7) != 0 {
		t.Fatal("self latency should be zero")
	}
}

// Property: hop distance is a metric — symmetric, zero iff equal, and
// satisfies the triangle inequality.
func TestHopsMetricProperties(t *testing.T) {
	m := New(4, 4, 3)
	f := func(a, b, c uint8) bool {
		x, y, z := int(a)%16, int(b)%16, int(c)%16
		if m.Hops(x, y) != m.Hops(y, x) {
			return false
		}
		if (m.Hops(x, y) == 0) != (x == y) {
			return false
		}
		return m.Hops(x, z) <= m.Hops(x, y)+m.Hops(y, z)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBaselineNUCARoundTripMatchesPaper(t *testing.T) {
	m := New(4, 4, 3)
	banks := make([]int, 16)
	for i := range banks {
		banks[i] = i
	}
	// Mean over all cores of mean over all banks.
	total := 0.0
	for c := 0; c < 16; c++ {
		total += m.AverageLatency(c, banks)
	}
	avgOneWay := total / 16
	rt := 2*avgOneWay + 5 // + bank access
	if rt < 19 || rt > 24 {
		t.Fatalf("average NUCA round trip = %.1f cycles, want ~20-23 (paper: 23)", rt)
	}
}

func TestPanicsOnBadInput(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, 4, 3) },
		func() { New(4, -1, 3) },
		func() { New(4, 4, 3).Coord(16) },
		func() { New(4, 4, 3).Coord(-1) },
		func() { New(4, 4, 3).AverageLatency(0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}
