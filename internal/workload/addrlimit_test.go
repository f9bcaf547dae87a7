package workload

import (
	"testing"

	"repro/internal/mem"
)

// opsTop drains n ops from src in batches and returns one past the
// largest instruction-line or data address among them, and how many
// were cold (non-temporal) accesses.
func opsTop(src Source, n int) (top mem.Addr, cold int) {
	buf := make([]Op, 4096)
	for done := 0; done < n; done += len(buf) {
		src.NextBatch(buf)
		for _, op := range buf {
			if op.IWord != 0 {
				top = max(top, mem.Addr(op.IWord&^1)+1)
			}
			if op.DWord != 0 {
				top = max(top, op.Addr()+1)
				if op.NonTemporal() {
					cold++
				}
			}
		}
	}
	return top, cold
}

// TestSourceAddrLimit pins the address map that sizes the cache tags and
// the snoop filter's keys (core.NewSystemFromSources): for every preset,
// core count and scale, at least 1M ops of every core's stream, cold
// accesses included, stay below the stream's AddrLimit, and every
// synthetic limit is at most 2^42 — below 2^41 up to 16 cores — so a
// 16-core system's line addresses are 35 bits wide. A Phased source
// bounds every phase at its group's offset, all of them below 2^46 in
// group 15, and a trace's limit is its largest address + 1 plus its
// offset.
func TestSourceAddrLimit(t *testing.T) {
	const opsPerCore = 1 << 20
	var presets []Spec
	presets = append(presets, ScaleOutSuite()...)
	presets = append(presets, EnterpriseSuite()...)
	for _, n := range Spec2006Names() {
		presets = append(presets, Spec2006(n))
	}
	for _, spec := range presets {
		t.Run(spec.Name, func(t *testing.T) {
			t.Parallel()
			for _, cores := range []int{1, 4, 16, 32} {
				bound := mem.Addr(1) << 42
				if cores <= 16 {
					bound = 1 << 41
				}
				for _, scale := range []int64{1, 4, 32} {
					for c := range cores {
						st := NewStream(spec, c, cores, scale, 1)
						limit := st.AddrLimit()
						if limit > bound {
							t.Fatalf("%d cores, scale %d, core %d: limit %#x above %#x", cores, scale, c, limit, bound)
						}
						top, cold := opsTop(st, opsPerCore)
						if top > limit || cold == 0 {
							t.Fatalf("%d cores, scale %d, core %d: ops reach %#x (%d cold), limit %#x",
								cores, scale, c, top-1, cold, limit)
						}
					}
				}
			}
		})
	}

	t.Run("phased", func(t *testing.T) {
		// A phase with a 1 TB secondary set reaches past every cold region.
		big := WebSearch()
		big.Name = "WebSearch-1TB"
		big.SecondaryWSS = 1 << 40
		phases := []Phase{
			{Spec: WebSearch(), Arrival: Arrival{MeanOps: 50_000}},
			{Spec: big, Arrival: Arrival{MeanOps: 50_000}},
		}
		limit0, limit1 := NewStream(WebSearch(), 3, 4, 1, 1).AddrLimit(), NewStream(big, 3, 4, 1, 1).AddrLimit()
		if limit1 <= limit0 {
			t.Fatalf("the 1 TB phase's limit %#x does not pass phase 0's %#x", limit1, limit0)
		}
		for _, g := range []int{0, 3, 15} {
			p := NewPhased(phases, 3, 4, 1, 1, 0, GroupOffset(g))
			off := mem.Addr(GroupOffset(g))
			if got := p.AddrLimit(); got != off+limit1 {
				t.Fatalf("group %d: limit %#x, want %#x", g, got, off+limit1)
			}
			if top, _ := opsTop(p, 200_000); top > off+limit1 || top <= off+limit0 {
				t.Fatalf("group %d: ops reach %#x, want past %#x and below %#x", g, top-1, off+limit0, off+limit1)
			}
		}
		for _, cores := range []int{16, 32} {
			p := NewPhased([]Phase{{Spec: WebSearch(), Arrival: Arrival{MeanOps: 1000}}}, cores-1, cores, 1, 1, 0, GroupOffset(MaxGroups-1))
			limit := p.AddrLimit()
			if limit > 1<<46 {
				t.Fatalf("%d cores, group 15: limit %#x above 2^46", cores, limit)
			}
			if top, _ := opsTop(p, 1<<20); top > limit {
				t.Fatalf("%d cores, group 15: ops reach %#x, limit %#x", cores, top-1, limit)
			}
		}
	})

	t.Run("trace", func(t *testing.T) {
		ops := recordOps(t, 5000)
		var top uint64
		for _, op := range ops {
			top = max(top, op.IWord&^1, op.DWord&opAddrMask)
		}
		for _, g := range []int{0, 2, 15} {
			src := NewTraceSource("w", 2, ops, GroupOffset(g), 0)
			if got, want := src.AddrLimit(), mem.Addr(top+1+GroupOffset(g)); got != want {
				t.Fatalf("group %d: limit %#x, want %#x", g, got, want)
			}
		}
		// The largest address may be an instruction line or a datum.
		for _, op := range []Op{{IWord: 1<<40 | 1}, {DWord: opMem | opWrite | 1<<39 + 5}} {
			want := mem.Addr(max(op.IWord&^1, op.DWord&opAddrMask) + 1)
			if got := NewTraceSource("one", 1, []Op{op, {IWord: 64}}, 0, 0).AddrLimit(); got != want {
				t.Fatalf("%+v: limit %#x, want %#x", op, got, want)
			}
		}
	})
}
