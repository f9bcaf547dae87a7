// Package mem defines the vocabulary shared by every memory-system
// component: physical addresses, line geometry, access operations, and the
// request/response contract between hierarchy levels.
package mem

import (
	"fmt"

	"repro/internal/sim"
)

// Addr is a physical byte address.
type Addr uint64

// LineSize is the cache line size used throughout the simulated systems
// (paper Table II: 64 B lines everywhere).
const LineSize = 64

// LineAddr is an address truncated to a cache-line boundary.
type LineAddr uint64

// Line returns the line address containing a.
func (a Addr) Line() LineAddr { return LineAddr(a &^ (LineSize - 1)) }

// Addr returns the first byte address of the line.
func (l LineAddr) Addr() Addr { return Addr(l) }

// Op is the kind of memory access.
type Op uint8

const (
	// IFetch is an instruction fetch (read of the instruction stream).
	IFetch Op = iota
	// Read is a data load.
	Read
	// Write is a data store.
	Write
)

func (o Op) String() string {
	switch o {
	case IFetch:
		return "ifetch"
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Request is a memory access travelling down the hierarchy. Completion is
// signalled by calling Done exactly once at the cycle the data is available
// to the requester.
type Request struct {
	Addr Addr
	Op   Op
	Core int // issuing core id

	// RWShared marks lines the workload model designates as read-write
	// shared between cores. Used by the Fig 3/4 characterization harness.
	RWShared bool

	// Done is invoked when the access completes. It must not be nil when
	// the request is issued to a Port.
	Done func()
}

// Port is one level of the memory hierarchy: it accepts a request and
// eventually (in simulated time) calls req.Done.
type Port interface {
	Access(req *Request)
}

// PortFunc adapts a function to the Port interface.
type PortFunc func(req *Request)

// Access implements Port.
func (f PortFunc) Access(req *Request) { f(req) }

// FixedLatencyPort completes every request after a fixed delay. It is the
// simplest possible backing store and is widely used in unit tests.
type FixedLatencyPort struct {
	Engine  *sim.Engine
	Latency sim.Cycle
	Count   uint64 // accesses observed
}

// Access implements Port.
func (p *FixedLatencyPort) Access(req *Request) {
	p.Count++
	done := req.Done
	p.Engine.Schedule(p.Latency, done)
}
