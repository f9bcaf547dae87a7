// Package noc models the on-chip interconnect: a 2D mesh with
// dimension-ordered (XY) routing and a fixed per-hop latency (paper Table
// II: 4x4 mesh, 3 cycles/hop). Every mesh node hosts one core and, in the
// shared-LLC designs, one LLC bank.
//
// The model is a latency model, not a flit-level network: the evaluated
// systems are latency-bound, not bandwidth-bound (paper Sec. VII-A cites
// Ferdman et al. and Google showing server CPUs are not bandwidth limited),
// so hop-count x hop-latency captures the interconnect's contribution.
package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Mesh is a W x H 2D mesh with uniform per-hop latency.
type Mesh struct {
	Width, Height int
	HopLatency    sim.Cycle

	// lat caches the one-way latency for every node pair (row-major
	// from*Nodes()+to): the mesh is static, and Latency sits on every
	// miss path, so the div/mod coordinate math is paid once here.
	lat []sim.Cycle
}

// New returns a mesh of the given dimensions. Paper Table II uses
// New(4, 4, 3) for the 16-core CMP.
func New(width, height int, hopLatency sim.Cycle) *Mesh {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("noc: invalid mesh %dx%d", width, height))
	}
	m := &Mesh{
		Width:      width,
		Height:     height,
		HopLatency: hopLatency,
	}
	n := m.Nodes()
	m.lat = make([]sim.Cycle, n*n)
	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			m.lat[from*n+to] = sim.Cycle(m.Hops(from, to)) * hopLatency
		}
	}
	return m
}

// Nodes returns the node count.
func (m *Mesh) Nodes() int { return m.Width * m.Height }

// Coord returns the (x, y) position of node id (row-major layout).
func (m *Mesh) Coord(node int) (x, y int) {
	m.check(node)
	return node % m.Width, node / m.Width
}

// Hops returns the XY-routed hop count between two nodes (Manhattan
// distance).
func (m *Mesh) Hops(from, to int) int {
	fx, fy := m.Coord(from)
	tx, ty := m.Coord(to)
	return abs(fx-tx) + abs(fy-ty)
}

// Latency returns the one-way traversal latency between two nodes. A
// node's access to itself costs nothing.
func (m *Mesh) Latency(from, to int) sim.Cycle {
	m.check(from)
	m.check(to)
	return m.lat[from*m.Width*m.Height+to]
}

// RoundTrip returns the request + response traversal latency.
func (m *Mesh) RoundTrip(from, to int) sim.Cycle {
	return 2 * m.Latency(from, to)
}

// AverageLatency returns the mean one-way latency from node `from` to every
// node in `targets`, assuming uniform access — the expected NUCA bank
// traversal time for address-interleaved data.
func (m *Mesh) AverageLatency(from int, targets []int) float64 {
	if len(targets) == 0 {
		panic("noc: AverageLatency over no targets")
	}
	sum := 0.0
	for _, t := range targets {
		sum += float64(m.Latency(from, t))
	}
	return sum / float64(len(targets))
}

func (m *Mesh) check(node int) {
	if node < 0 || node >= m.Nodes() {
		panic(fmt.Sprintf("noc: node %d outside %dx%d mesh", node, m.Width, m.Height))
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
