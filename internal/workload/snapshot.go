package workload

import "repro/internal/checkpoint"

// Checkpoint walks the stream's mutable generator state: the xorshift
// RNG, the PC walk, the scan/cold cursors and the generation counter.
// Everything else — scaled footprints, probability thresholds, divisor
// reciprocals — is a pure function of (Spec, core, ncores, scale, seed)
// and is rebuilt by NewStream on the restore side; the content-hash
// checkpoint key covers those inputs, so a restored stream continues the
// exact op sequence a from-scratch warm-up would produce. The core id is
// shape.
func (s *Stream) Checkpoint(c *checkpoint.Codec) {
	c.Section("workload.Stream")
	checkpoint.Shape(c, "workload.Stream core", s.core, checkpoint.Int)
	s.rng.Checkpoint(c)
	checkpoint.Uint(c, &s.pc)
	checkpoint.Uint(c, &s.lastILine)
	checkpoint.Bool(c, &s.havePC)
	checkpoint.Bool(c, &s.jumped)
	checkpoint.Int(c, &s.scanCursor)
	checkpoint.Int(c, &s.coldCursor)
	checkpoint.Uint(c, &s.generated)
}
