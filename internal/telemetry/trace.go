package telemetry

import "fmt"

// EventKind names a kernel hook-point event. The three operand slots
// A/B/C are kind-specific; the schema is documented per kind below and
// in docs/observability.md.
type EventKind uint8

const (
	// EvPageFault: the pager serviced a fault. A=page, B=frame, C unused.
	EvPageFault EventKind = iota + 1
	// EvEvictDecision: the eviction Prioritization hook ran. A=candidate
	// page, B=chosen page, C=outcome (see EvictOutcome values).
	EvEvictDecision
	// EvStreamPass: one filter of a stream chain processed a block.
	// A=filter index, B=bytes in, C=bytes out.
	EvStreamPass
	// EvUpcall: one protection-domain crossing completed. A=entry-point
	// arg count, B=synthetic latency ns, C=measured round-trip ns.
	EvUpcall
	// EvLDSegment: the logical disk flushed a segment. A=segment,
	// B=first physical block, C=blocks written.
	EvLDSegment
	// EvSchedPick: the scheduler dispatched. A=pid, B=run-queue index
	// picked, C=1 if a policy override, else 0.
	EvSchedPick
)

// Eviction-decision outcome codes (operand C of EvEvictDecision).
const (
	EvictDefault  = 0 // no policy installed; kernel LRU candidate used
	EvictAccepted = 1 // policy declined or proposed the candidate
	EvictOverride = 2 // policy proposal accepted
	EvictRejected = 3 // policy proposal invalid; candidate used
	EvictErrored  = 4 // policy trapped; candidate used
)

// EventCat is the SpanRecord.Cat of every kernel event record.
const EventCat = "event"

var eventNames = [...]string{
	EvPageFault:     "page_fault",
	EvEvictDecision: "evict_decision",
	EvStreamPass:    "stream_pass",
	EvUpcall:        "upcall",
	EvLDSegment:     "ld_segment",
	EvSchedPick:     "sched_pick",
}

func (k EventKind) String() string {
	if int(k) < len(eventNames) && eventNames[k] != "" {
		return eventNames[k]
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// Emit records one kernel event in the installed trace store as a
// zero-duration record. Events are never sampled: while the store is on
// every call lands (subject only to ring overwrite), and while it is off
// Emit costs one atomic load.
func Emit(kind EventKind, a, b, c uint64) {
	if !spansOn.Load() {
		return
	}
	if st := spanTrace.Load(); st != nil {
		st.record(SpanRecord{
			Kind: kind, Name: kind.String(), Cat: EventCat,
			Start: spanNow(), A: a, B: b, C: c,
		})
	}
}
