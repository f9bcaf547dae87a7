package workload

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/mem"
)

// expandFootprint visits every line of regions in order, the way a
// prewarm walk does: Bytes/LineSize lines per region, starting at Start
// and wrapping at Bytes.
func expandFootprint(regions []Region, visit func(addr mem.Addr, instr bool)) {
	for _, r := range regions {
		for i := int64(0); i < r.Bytes; i += mem.LineSize {
			visit(r.Base+mem.Addr((r.Start+i)%r.Bytes), r.Instr)
		}
	}
}

// TestFootprintGolden pins the prewarm address sequence of every
// scale-out preset: an FNV-1a hash over each visited (addr, instr) of
// cores 0 and 15 of 16 at Scales 32 and 4. The constants were taken from
// the callback walk Footprint replaced, so they also prove the
// declarative regions visit the same lines in the same order.
func TestFootprintGolden(t *testing.T) {
	want := map[string]struct {
		hash  uint64
		lines int
	}{
		"WebSearch":   {0x996bab862219ee69, 549504},
		"DataServing": {0x26ea6fca40912d81, 148608},
		"WebFrontend": {0x29f657194d88559f, 125568},
		"MapReduce":   {0x10303752f149cc30, 1491840},
		"SATSolver":   {0xc4c716f78b0ae9bc, 125568},
	}
	for _, spec := range ScaleOutSuite() {
		h := fnv.New64a()
		var rec [9]byte
		lines := 0
		for _, scale := range []int64{32, 4} {
			for _, core := range []int{0, 15} {
				regions := NewStream(spec, core, 16, scale, 1).Footprint()
				expandFootprint(regions, func(addr mem.Addr, instr bool) {
					binary.LittleEndian.PutUint64(rec[:8], uint64(addr))
					rec[8] = 0
					if instr {
						rec[8] = 1
					}
					h.Write(rec[:])
					lines++
				})
			}
		}
		w := want[spec.Name]
		if got := h.Sum64(); got != w.hash || lines != w.lines {
			t.Errorf("%s: footprint hash %#016x over %d lines, want %#016x over %d",
				spec.Name, got, lines, w.hash, w.lines)
		}
	}
}

// TestFootprintOffsetAndTrace: a phased source declares its inner
// stream's regions shifted by the group offset, and a trace declares
// none.
func TestFootprintOffsetAndTrace(t *testing.T) {
	phases := []Phase{{Spec: WebSearch(), Arrival: Arrival{MeanOps: 1000}}}
	inner := NewStream(WebSearch(), 2, 4, 32, 1).Footprint()
	got := NewPhased(phases, 2, 4, 32, 1, 0, GroupOffset(3)).Footprint()
	if len(got) != len(inner) {
		t.Fatalf("phased footprint has %d regions, stream %d", len(got), len(inner))
	}
	for i := range got {
		want := inner[i]
		want.Base += mem.Addr(GroupOffset(3))
		if got[i] != want {
			t.Errorf("region %d = %+v, want %+v", i, got[i], want)
		}
	}
	if fp := NewTraceSource("t", 2, []Op{{IWord: 1 << 32}}, 0, 0).Footprint(); fp != nil {
		t.Errorf("trace footprint = %v, want nil", fp)
	}
}
