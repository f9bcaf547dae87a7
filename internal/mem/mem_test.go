package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestLineTruncation(t *testing.T) {
	cases := []struct {
		addr Addr
		want LineAddr
	}{
		{0, 0},
		{1, 0},
		{63, 0},
		{64, 64},
		{65, 64},
		{0xFFFF, 0xFFC0},
	}
	for _, c := range cases {
		if got := c.addr.Line(); got != c.want {
			t.Errorf("Addr(%#x).Line() = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestLineRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		l := Addr(a).Line()
		// The line address is aligned and contains the original address.
		if uint64(l)%LineSize != 0 {
			return false
		}
		return uint64(l) <= a && a < uint64(l)+LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOpString(t *testing.T) {
	if IFetch.String() != "ifetch" || Read.String() != "read" || Write.String() != "write" {
		t.Fatal("unexpected op strings")
	}
	if Op(99).String() == "" {
		t.Fatal("unknown op should still format")
	}
}

func TestFixedLatencyPort(t *testing.T) {
	e := sim.NewEngine()
	p := &FixedLatencyPort{Engine: e, Latency: 42}
	doneAt := sim.Cycle(0)
	p.Access(&Request{Addr: 0x1000, Op: Read, Done: func() { doneAt = e.Now() }})
	e.RunAll()
	if doneAt != 42 {
		t.Fatalf("completed at %d, want 42", doneAt)
	}
	if p.Count != 1 {
		t.Fatalf("Count = %d, want 1", p.Count)
	}
}

func TestPortFunc(t *testing.T) {
	called := false
	var p Port = PortFunc(func(req *Request) {
		called = true
		req.Done()
	})
	p.Access(&Request{Done: func() {}})
	if !called {
		t.Fatal("PortFunc did not dispatch")
	}
}
