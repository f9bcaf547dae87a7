// Package dist is the distributed sweep runner (DESIGN.md §13): a
// coordinator that partitions a cell grid into lease-based work
// batches served over a small HTTP+JSON protocol, and a worker client
// that runs leased cells through the fault-tolerant grid executor
// (internal/experiments.RunGrid, the same entry point a single-process
// run uses) and streams records back.
//
// The coordinator reassembles reports in enumeration order, so the
// final output is byte-identical to a single-process `paperbench
// grid` run modulo wall_ms — at any worker count, and across worker
// crashes: leases expire when heartbeats stop, orphaned cells are
// reassigned to surviving workers with robust.Backoff pacing, and
// duplicate completions (the reassignment race) merge idempotently by
// robust.Key content hash. The coordinator journals completed cells in
// its own fsync'd journal and resumes from it after its own crash; it
// degrades to executing cells itself when every worker vanishes.
//
// The grid travels as its textual spec (experiments.ParseGridSpec's
// input), not as serialized configs: every process compiles the string
// with the same code, so equal strings mean equal grids and equal
// journal keys. The protocol carries a version tag and the journal
// salt; a worker built from different simulation semantics refuses to
// join rather than silently diverge.
package dist

import (
	"encoding/json"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// ProtocolVersion gates coordinator/worker compatibility. Bump on any
// wire or semantics change; a mismatched worker exits with an error
// instead of producing records the coordinator would merge wrongly.
const ProtocolVersion = "dist-v2"

// Wire paths.
const (
	PathSpec      = "/spec"
	PathLease     = "/lease"
	PathReport    = "/report"
	PathHeartbeat = "/heartbeat"
)

// ModeSpec is the wire form of experiments.Mode: only the fields that
// determine emitted bytes travel. Parallelism and CheckpointDir are
// host-layout knobs each worker sets from its own flags — neither
// changes a record (DESIGN.md §11).
type ModeSpec struct {
	Name          string `json:"name"`
	WarmInstr     int    `json:"warm_instr"`
	WarmCycles    uint64 `json:"warm_cycles"`
	MeasureCycles uint64 `json:"measure_cycles"`
	Scale         int64  `json:"scale"`
}

// ModeSpecOf extracts the wire fields from a Mode.
func ModeSpecOf(m experiments.Mode) ModeSpec {
	return ModeSpec{
		Name:          m.Name,
		WarmInstr:     m.WarmInstr,
		WarmCycles:    uint64(m.WarmCycles),
		MeasureCycles: uint64(m.MeasureCycles),
		Scale:         m.Scale,
	}
}

// Mode rebuilds an experiments.Mode from the wire form; the host-local
// knobs stay zero for the caller to fill in.
func (ms ModeSpec) Mode() experiments.Mode {
	return experiments.Mode{
		Name:          ms.Name,
		WarmInstr:     ms.WarmInstr,
		WarmCycles:    sim.Cycle(ms.WarmCycles),
		MeasureCycles: sim.Cycle(ms.MeasureCycles),
		Scale:         ms.Scale,
	}
}

// OptionsSpec is the wire form of the fault-tolerance options the
// coordinator dictates to every worker, so a cell fails (or retries,
// or times out) identically wherever it lands. Durations travel as
// exact nanoseconds.
type OptionsSpec struct {
	OnError      string        `json:"on_error"` // "fail" | "skip"
	Retries      int           `json:"retries"`
	Backoff      time.Duration `json:"backoff_ns"`
	BackoffCap   time.Duration `json:"backoff_cap_ns"`
	CellDeadline time.Duration `json:"cell_deadline_ns"`
}

// SpecResponse answers GET /spec: everything a worker needs to compile
// the exact grid the coordinator is sweeping.
type SpecResponse struct {
	Version    string      `json:"version"` // ProtocolVersion
	Salt       string      `json:"salt"`    // experiments.GridJournalSalt
	Grid       string      `json:"grid"`    // textual spec (ParseGridSpec input)
	Windows    int         `json:"windows"`
	Confidence float64     `json:"confidence"`
	Mode       ModeSpec    `json:"mode"`
	Options    OptionsSpec `json:"options"`
	// Cells is the coordinator's cell count — a compile cross-check: a
	// worker whose parse disagrees refuses to join.
	Cells int `json:"cells"`
	// ScenarioDigests are the content digests of the grid's scenario
	// axis points (empty for workload-only grids). The grid string names
	// scenario *files*; a worker whose local copies hash differently —
	// stale spec, edited trace — refuses to join rather than emit
	// records keyed to a different scenario.
	ScenarioDigests []string `json:"scenario_digests,omitempty"`
}

// LeaseRequest asks for a batch of cells. Max caps the batch at the
// worker's appetite (its parallelism); the coordinator may grant
// fewer.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max"`
}

// LeaseResponse grants a lease (Indices non-empty), asks the worker to
// poll again later (empty Indices, Retry), or reports the sweep
// finished (Done) — the worker's signal to exit cleanly.
type LeaseResponse struct {
	LeaseID uint64        `json:"lease_id,omitempty"`
	Indices []int         `json:"indices,omitempty"`
	TTL     time.Duration `json:"ttl_ns,omitempty"`
	Retry   time.Duration `json:"retry_ns,omitempty"`
	Done    bool          `json:"done,omitempty"`
}

// ReportRequest delivers completed cell records (each a marshaled
// experiments.GridCellResult) under a lease. Fatal aborts the whole
// sweep: a worker in fail-fast mode hit a permanently failed cell.
type ReportRequest struct {
	WorkerID string            `json:"worker_id"`
	LeaseID  uint64            `json:"lease_id"`
	Records  []json.RawMessage `json:"records,omitempty"`
	Fatal    string            `json:"fatal,omitempty"`
}

// ReportResponse acknowledges a report. Expired tells the worker its
// lease lapsed (the records were still merged if fresh — idempotence
// makes late delivery harmless) and it should abandon the rest of the
// batch and lease anew. Done tells it the sweep is complete.
type ReportResponse struct {
	OK      bool `json:"ok"`
	Expired bool `json:"expired,omitempty"`
	Done    bool `json:"done,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  uint64 `json:"lease_id"`
}

// HeartbeatResponse mirrors ReportResponse for the renewal path.
type HeartbeatResponse struct {
	OK      bool `json:"ok"`
	Expired bool `json:"expired,omitempty"`
	Done    bool `json:"done,omitempty"`
}
