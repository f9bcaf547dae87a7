package workload

import (
	"runtime"
	"testing"
	"time"
)

// drainRing consumes exactly want ops from ring i of ps, returning them.
func drainRing(r *Ring, want int) []Op {
	out := make([]Op, 0, want)
	for len(out) < want {
		out = append(out, r.NextBlock()...)
	}
	if len(out) != want {
		panic("ring produced more ops than its budget")
	}
	return out
}

// TestRingGoldenHash extends the golden op-stream pin (TestStreamGolden)
// through the ring: the FNV-1a hash of 100k ops consumed block-wise from
// an off-thread producer must equal the serial path's committed constant —
// the determinism contract of DESIGN.md §12.
func TestRingGoldenHash(t *testing.T) {
	const want = uint64(0x680c5f7e54bf750b)
	st := NewStream(WebSearch(), 2, 16, 32, 42)
	ps := StartProducers([]Source{st}, 1, 100000)
	defer ps.Close()
	h := uint64(1469598103934665603) // FNV-64 offset basis
	for _, op := range drainRing(ps.Ring(0), 100000) {
		for _, w := range [2]uint64{op.IWord, op.DWord} {
			for b := 0; b < 64; b += 8 {
				h ^= w >> b & 0xFF
				h *= 1099511628211 // FNV-64 prime
			}
		}
	}
	ps.Wait()
	if h != want {
		t.Fatalf("ring op-stream hash %#x, want %#x: the ring path diverged from the serial generator", h, want)
	}
}

// TestRingMatchesSerial is the serial-vs-ring differential across thread
// counts and budgets (including partial final blocks and sub-block
// budgets): every core's op sequence through the ring must equal per-op
// Next on an identical fresh stream, and the producers must leave the
// stream exactly budget ops advanced (the checkpoint drain rule).
func TestRingMatchesSerial(t *testing.T) {
	const cores = 5
	for _, threads := range []int{1, 2, 3, 8} {
		for _, budget := range []int{1, 63, 64, 65, 1000, 4097} {
			ringStreams := make([]Source, cores)
			serial := make([]*Stream, cores)
			for c := 0; c < cores; c++ {
				ringStreams[c] = NewStream(WebSearch(), c, cores, 16, 99)
				serial[c] = NewStream(WebSearch(), c, cores, 16, 99)
			}
			ps := StartProducers(ringStreams, threads, int64(budget))
			for c := 0; c < cores; c++ {
				got := drainRing(ps.Ring(c), budget)
				var op Op
				for i, g := range got {
					serial[c].Next(&op)
					if g != op {
						t.Fatalf("threads=%d budget=%d core %d op %d: ring %+v != serial %+v", threads, budget, c, i, g, op)
					}
				}
				if !ps.Ring(c).Drained() {
					t.Fatalf("threads=%d budget=%d core %d: ring not drained after consuming the budget", threads, budget, c)
				}
			}
			ps.Wait()
			for c := 0; c < cores; c++ {
				if g := ringStreams[c].Generated(); g != uint64(budget) {
					t.Fatalf("threads=%d budget=%d core %d: stream generated %d ops, want exactly the budget %d", threads, budget, c, g, budget)
				}
			}
			ps.Close()
		}
	}
}

// TestRingConsumePastBudgetPanics pins the protocol-violation check: a
// consumer asking for more ops than the producer's budget must panic, not
// deadlock.
func TestRingConsumePastBudgetPanics(t *testing.T) {
	st := NewStream(WebSearch(), 0, 1, 32, 7)
	ps := StartProducers([]Source{st}, 1, 10)
	defer ps.Close()
	drainRing(ps.Ring(0), 10)
	defer func() {
		if recover() == nil {
			t.Fatal("NextBlock past the producer budget did not panic")
		}
	}()
	ps.Ring(0).NextBlock()
}

// checkNoGoroutineLeak fails the test if goroutines alive at cleanup
// exceed the count at call time (same pattern as the experiments
// fault-tolerance suite).
func checkNoGoroutineLeak(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			if runtime.NumGoroutine() <= base {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				m := runtime.Stack(buf, true)
				t.Fatalf("producer goroutine leak\n%s", buf[:m])
			}
			time.Sleep(5 * time.Millisecond)
		}
	})
}

// TestRingProducerShutdown covers every producer exit path: budgeted
// completion (Wait), Close with nothing consumed (producers parked on a
// full ring), Close mid-consumption, and double Close — all without
// leaking a goroutine.
func TestRingProducerShutdown(t *testing.T) {
	newStreams := func(n int) []Source {
		sts := make([]Source, n)
		for c := range sts {
			sts[c] = NewStream(WebSearch(), c, n, 32, 13)
		}
		return sts
	}
	t.Run("budgeted-completion", func(t *testing.T) {
		checkNoGoroutineLeak(t)
		ps := StartProducers(newStreams(3), 2, 200)
		for c := 0; c < 3; c++ {
			drainRing(ps.Ring(c), 200)
		}
		ps.Wait()
		ps.Close()
	})
	t.Run("close-unconsumed", func(t *testing.T) {
		checkNoGoroutineLeak(t)
		ps := StartProducers(newStreams(4), 4, -1)
		time.Sleep(time.Millisecond) // let producers fill their rings and park
		ps.Close()
	})
	t.Run("close-mid-stream", func(t *testing.T) {
		checkNoGoroutineLeak(t)
		ps := StartProducers(newStreams(2), 1, -1)
		for i := 0; i < 50; i++ {
			ps.Ring(i % 2).NextBlock()
		}
		ps.Close()
		ps.Close() // idempotent
	})
}

// TestRingConsumeAllocs pins the steady-state block handoff at zero
// allocations on both sides. The producer half runs inline (fillOne) so
// the measurement is deterministic — no goroutine scheduling involved.
func TestRingConsumeAllocs(t *testing.T) {
	st := NewStream(WebSearch(), 0, 1, 32, 3)
	stop := make(chan struct{})
	defer close(stop)
	r := newRing(st, -1, make(chan struct{}, 1), stop)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		r.fillOne()
		sink += len(r.NextBlock())
	})
	if allocs != 0 {
		t.Fatalf("steady-state ring handoff allocates %.1f times per block, want 0", allocs)
	}
	if sink == 0 {
		t.Fatal("consumed nothing")
	}
}

// BenchmarkRingConsume measures the consumer-side cost of the off-thread
// path per op (generation itself runs on the producer goroutine).
func BenchmarkRingConsume(b *testing.B) {
	st := NewStream(WebSearch(), 0, 16, 32, 0x5EED)
	ps := StartProducers([]Source{st}, 1, -1)
	defer ps.Close()
	r := ps.Ring(0)
	b.ResetTimer()
	n := 0
	for n < b.N {
		n += len(r.NextBlock())
	}
	b.ReportMetric(float64(n)/float64(b.N), "ops/op")
}
