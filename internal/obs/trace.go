// Trace emitter of the observability layer: one structured JSONL record
// per injection/strike, covering the full lifecycle of the experiment —
// the fault as drawn (component, bit, cycle), the workbench that executed
// it, wall-clock start/duration, the simulated cycle count and raw
// machine outcome of the faulty run, and the final classification.
//
// Records are marshalled outside the tracer lock and appended to a shared
// buffer under a short critical section; the buffer is written out in
// 64 KiB batches. A campaign worker therefore pays one JSON marshal and a
// brief mutex per injection — negligible against a simulated machine run.

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"armsefi/internal/core/fault"
	"armsefi/internal/mem"
)

// Record kinds.
const (
	// KindInjection marks a GeFIN-style fault-injection experiment.
	KindInjection = "injection"
	// KindStrike marks a beam-simulator strike on the live board.
	KindStrike = "strike"
	// KindShard marks a campaign-service shard lifecycle event (claimed,
	// completed, requeued); the fault fields are zero and the Campaign /
	// Shard / Node fields locate the event instead.
	KindShard = "shard"
	// KindConvergence marks a streaming statistical-convergence snapshot:
	// one (workload, component, outcome-class) estimator's running
	// estimate, confidence-interval half-width, and sequential-stopping
	// state, emitted periodically while a campaign runs. The fault fields
	// are zero; Est/Margin/K/N and friends carry the estimator state.
	KindConvergence = "convergence"
)

// Record is one JSONL trace line: the full lifecycle of a single
// injection or strike.
type Record struct {
	// Kind is KindInjection or KindStrike.
	Kind string `json:"kind"`
	// Seq is the global emission sequence number (monotonic per tracer;
	// records of one worker/chain appear in execution order).
	Seq int64 `json:"seq"`
	// Workload names the benchmark under test.
	Workload string `json:"workload"`
	// Comp, Bit, Cycle are the fault as drawn from the seeded RNG. Comp
	// is omitted when zero (shard lifecycle records have no component),
	// so every record kind round-trips through JSON.
	Comp  fault.Component `json:"comp,omitzero"`
	Bit   uint64          `json:"bit"`
	Cycle uint64          `json:"cycle"`
	// Worker is the workbench that executed the experiment (0 is the
	// workload's primary workbench, clones count from 1).
	Worker int `json:"worker"`
	// StartNS is the wall-clock start offset from the observer's epoch;
	// WallNS is the experiment's wall duration.
	StartNS int64 `json:"start_ns"`
	WallNS  int64 `json:"wall_ns"`
	// ExecCycles is the simulated cycle count of the faulty run.
	ExecCycles uint64 `json:"exec_cycles"`
	// Outcome is the raw machine-level outcome (power-off, fatal,
	// timeout) before host-side classification.
	Outcome string `json:"outcome"`
	// Class is the final Masked/SDC/AppCrash/SysCrash classification
	// (omitted on shard lifecycle records, which classify nothing).
	Class fault.Class `json:"class,omitzero"`
	// Valid and Kernel report the injection-time strike context (gefin
	// records only): live content, kernel-owned line.
	Valid  bool `json:"valid,omitempty"`
	Kernel bool `json:"kernel,omitempty"`
	// Weight is the stratification weight a beam strike contributes to
	// its class's event count (strike records only).
	Weight float64 `json:"weight,omitempty"`
	// Followup marks a beam strike reclassified by the latent-corruption
	// follow-up execution.
	Followup bool `json:"followup,omitempty"`
	// FFCycles is the golden-prefix cycle count the checkpoint ladder
	// skipped for this run via a rung restore; EarlyExit marks a run cut
	// short by golden convergence (ladder-enabled campaigns only).
	FFCycles  uint64 `json:"ff_cycles,omitempty"`
	EarlyExit bool   `json:"early_exit,omitempty"`
	// HangProof is the cycle at which the run's state was proven to recur
	// exactly, so its watchdog-time Result was computed rather than
	// simulated to the end (ladder-enabled campaigns only). Only a timeout
	// can carry one.
	HangProof uint64 `json:"hang_proof,omitempty"`
	// Mechanism is the propagation-provenance verdict explaining how the
	// injected bit reached its class (provenance-enabled runs only; every
	// traced record of a provenance campaign carries one).
	Mechanism string `json:"mechanism,omitempty"`
	// Predicted marks an injection the campaign pre-filter proved masked
	// from the liveness log without simulating it (pruned campaigns only).
	// The record's Class/Valid/Kernel/Mechanism are the predicted verdict —
	// by construction exactly what simulation would have concluded — and
	// ExecCycles/Outcome are the golden run's.
	Predicted bool `json:"predicted,omitempty"`
	// Dedup marks a class member resolved from its equivalence-class
	// representative without simulation (deduplicated campaigns only).
	// The record's own Bit/Cycle locate the member's planned injection;
	// Class/Valid/Kernel/Mechanism/ExecCycles/Outcome are the
	// representative's — by construction exactly what simulating the
	// member would have produced.
	Dedup bool `json:"dedup,omitempty"`
	// ReadCycle/ReadPC/ReadReg locate the first consuming read of the
	// corrupted value (provenance records whose chain has a read event).
	ReadCycle uint64 `json:"read_cycle,omitempty"`
	ReadPC    uint32 `json:"read_pc,omitempty"`
	ReadReg   string `json:"read_reg,omitempty"`
	// ProvEvents is the probe's bounded lifecycle event chain; ProvDropped
	// counts events past the cap.
	ProvEvents  []mem.ProbeEvent `json:"prov_events,omitempty"`
	ProvDropped int              `json:"prov_dropped,omitempty"`
	// Campaign, Shard, Node, and Span correlate the record across a
	// distributed campaign: the campaign id, the shard index into its
	// manifest, the worker node that executed it, and the coordinator-
	// minted span id of the shard execution (every claim gets a fresh
	// span, so the records of a re-executed shard are distinguishable
	// from the execution whose Complete was accepted). Injection/strike
	// records of federated campaigns carry all four via TraceContext;
	// in-process campaigns leave them zero.
	//
	// Event and Items are KindShard extras: what happened ("claimed",
	// "completed", "requeued") and how many experiments the shard covers.
	Campaign string `json:"campaign,omitempty"`
	Shard    int    `json:"shard,omitempty"`
	Node     string `json:"node,omitempty"`
	Span     int64  `json:"span,omitempty"`
	Event    string `json:"event,omitempty"`
	Items    int    `json:"items,omitempty"`
	// DivergedAt/ConvergedAt are the ladder-rung cycles bounding the
	// fault's architecturally-visible lifetime: the first rung whose
	// fingerprint diverged from golden and the rung where the run
	// converged back (ladder-enabled provenance runs only).
	DivergedAt  uint64 `json:"diverged_at,omitempty"`
	ConvergedAt uint64 `json:"converged_at,omitempty"`
	// Est, Margin, K, N, Planned, Look, Met, and Stopped are
	// KindConvergence extras: the estimator's running class fraction, its
	// Wilson half-width at the campaign's confidence, the class tally and
	// committed plan-order prefix it was computed from, the planned total,
	// the sequential look index, whether the target margin is met, and
	// whether the estimator's component has been truncated by the
	// sequential stopping rule. All omitted when zero, so other record
	// kinds round-trip byte-identically.
	Est     float64 `json:"est,omitempty"`
	Margin  float64 `json:"margin,omitempty"`
	K       int     `json:"k,omitempty"`
	N       int     `json:"n,omitempty"`
	Planned int     `json:"planned,omitempty"`
	Look    int     `json:"look,omitempty"`
	Met     bool    `json:"met,omitempty"`
	Stopped bool    `json:"stopped,omitempty"`
}

// TraceContext correlates the trace records of one distributed shard
// execution. The coordinator mints a monotonic span id per shard claim;
// the worker carries the context into the engines, which stamp it onto
// every injection/strike record they emit — so N nodes' trace streams
// merge into one coherent campaign tree, and the records of a shard that
// ran twice (lease expiry, requeue) are distinguishable by span.
type TraceContext struct {
	Campaign string
	Shard    int
	Node     string
	Span     int64
}

// Stamp writes the context onto a record. The zero context — in-process,
// non-federated campaigns — stamps nothing, keeping their records
// byte-identical to pre-federation traces.
func (tc TraceContext) Stamp(rec *Record) {
	if tc.Campaign == "" {
		return
	}
	rec.Campaign = tc.Campaign
	rec.Shard = tc.Shard
	rec.Node = tc.Node
	rec.Span = tc.Span
}

// RecordSink receives every record a tracer emits, after sequence
// assignment. Implementations must be safe for concurrent use; the
// campaign service's telemetry shipper is one.
type RecordSink interface {
	EmitRecord(rec Record)
}

// traceFlushBytes is the buffered-writer batch size.
const traceFlushBytes = 64 << 10

// Tracer streams Records as JSON lines to a writer. Safe for concurrent
// use by many campaign workers; a nil *Tracer discards everything. A
// tracer built over a nil writer only assigns sequence numbers and feeds
// its sink — workers federating telemetry without a local trace file use
// that shape.
type Tracer struct {
	seq  atomic.Int64
	sink atomic.Pointer[RecordSink]

	mu  sync.Mutex
	w   io.Writer
	buf []byte
	err error
}

// NewTracer builds a tracer over w (nil for a sink-only tracer). The
// caller owns w and closes it after Flush.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: w, buf: make([]byte, 0, traceFlushBytes+4096)}
}

// Tee attaches a sink that receives a copy of every record emitted from
// now on, in addition to (not instead of) the writer. Attach before the
// campaign starts; the last sink attached wins.
func (t *Tracer) Tee(s RecordSink) {
	if t == nil || s == nil {
		return
	}
	t.sink.Store(&s)
}

// Emit assigns the record its sequence number and queues it for writing.
func (t *Tracer) Emit(rec *Record) {
	if t == nil {
		return
	}
	rec.Seq = t.seq.Add(1) - 1
	if sp := t.sink.Load(); sp != nil {
		(*sp).EmitRecord(*rec)
	}
	if t.w == nil {
		return
	}
	line, err := json.Marshal(rec) // outside the lock: the expensive part
	t.mu.Lock()
	defer t.mu.Unlock()
	if err != nil {
		if t.err == nil {
			t.err = fmt.Errorf("obs: marshalling trace record: %w", err)
		}
		return
	}
	t.buf = append(t.buf, line...)
	t.buf = append(t.buf, '\n')
	if len(t.buf) >= traceFlushBytes {
		t.flushLocked()
	}
}

func (t *Tracer) flushLocked() {
	if t.err != nil || len(t.buf) == 0 {
		t.buf = t.buf[:0]
		return
	}
	_, err := t.w.Write(t.buf)
	t.buf = t.buf[:0]
	if err != nil {
		t.err = fmt.Errorf("obs: writing trace: %w", err)
	}
}

// Flush writes any buffered records and reports the first error the
// tracer has seen.
func (t *Tracer) Flush() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked()
	return t.err
}

// Emitted returns the number of records emitted so far.
func (t *Tracer) Emitted() int64 {
	if t == nil {
		return 0
	}
	return t.seq.Load()
}
