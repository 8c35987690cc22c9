package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// The trace store. One bounded ring (SpanTrace) holds two kinds of
// record: kernel events from Emit, which are never sampled, and causal
// spans, which are sampled at the root. Both share one clock, one
// switch (EnableSpans/DisableSpans) and one pair of exporters (JSONL
// and Chrome trace-event JSON).
//
// Causal span tracing. A root span opens at a kernel emit point (pager
// eviction, stream pass, LD segment flush, pool worker checkout) and
// its context — parent span ID plus a track for rendering — is threaded
// through the tech instrumentation into the engine and across the
// upcall boundary, so one sampled eviction exports as nested
// kernel→policy→engine→upcall events a Chrome trace viewer or Perfetto
// renders as a flame of spans.
//
// The overhead contract mirrors the rest of the package: with tracing
// off, a root-span site costs one atomic load and child-span sites cost
// one zero-test of a value already in hand (an inactive context), so
// the kernel hot paths stay inside the ≤2% budget. With tracing on,
// only every SpanSampleEvery-th root is recorded; children of an
// unsampled root are free.

// SpanID names one recorded span; 0 is "no span".
type SpanID uint64

// SpanCtx is the propagation context handed down a call chain: the
// parent span and the track (Chrome "tid") the trace renders on. The
// zero SpanCtx is inactive and makes every derived span a no-op.
type SpanCtx struct {
	Parent SpanID
	Track  uint64
}

// Active reports whether spans derived from this context record.
func (c SpanCtx) Active() bool { return c.Parent != 0 }

// Span is one open span. The zero Span is inactive: End is a no-op.
type Span struct {
	id     SpanID
	parent SpanID
	track  uint64
	name   string
	cat    string
	start  int64 // ns on the store clock
}

// Active reports whether this span will record on End.
func (s Span) Active() bool { return s.id != 0 }

// ID returns the span's ID (0 when inactive).
func (s Span) ID() SpanID { return s.id }

// Ctx returns the context children of this span should derive from.
func (s Span) Ctx() SpanCtx {
	if s.id == 0 {
		return SpanCtx{}
	}
	return SpanCtx{Parent: s.id, Track: s.track}
}

// SpanRecord is one record in the trace store: a completed span, or a
// kernel event (Cat EventCat, Kind set, zero duration, no span IDs).
type SpanRecord struct {
	Seq     uint64 // global record index; gaps mean ring overwrite
	ID      SpanID
	Parent  SpanID
	Kind    EventKind // event kind; 0 for spans
	Name    string
	Cat     string
	Track   uint64
	Start   int64 // ns on the store clock, shared by spans and events
	Dur     int64 // ns; 0 for events
	A, B, C uint64
}

// SpanTrace is the one bounded trace store: sampled causal spans and
// unsampled kernel events share a ring that overwrites the oldest
// record when full, like a kernel trace buffer, and reports how many
// records were dropped.
type SpanTrace struct {
	mu     sync.Mutex
	buf    []SpanRecord
	seq    uint64      // total records ever written
	byKind [256]uint64 // cumulative per-event-kind counts (survive overwrite)
}

func (st *SpanTrace) record(r SpanRecord) {
	st.mu.Lock()
	r.Seq = st.seq
	if len(st.buf) < cap(st.buf) {
		st.buf = append(st.buf, r)
	} else {
		st.buf[st.seq%uint64(cap(st.buf))] = r
	}
	st.seq++
	st.byKind[r.Kind]++
	st.mu.Unlock()
}

// Len reports how many records the ring currently holds.
func (st *SpanTrace) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.buf)
}

// Dropped reports how many records were overwritten by ring wrap.
func (st *SpanTrace) Dropped() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.seq - uint64(len(st.buf))
}

// Records returns the retained records, oldest first.
func (st *SpanTrace) Records() []SpanRecord {
	recs, _ := st.snapshot()
	return recs
}

// snapshot returns the retained records, oldest first, and the number
// ever written, read under one lock so export accounting is consistent.
func (st *SpanTrace) snapshot() ([]SpanRecord, uint64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]SpanRecord, 0, len(st.buf))
	if st.seq > uint64(len(st.buf)) {
		at := st.seq % uint64(len(st.buf))
		out = append(out, st.buf[at:]...)
		out = append(out, st.buf[:at]...)
	} else {
		out = append(out, st.buf...)
	}
	return out, st.seq
}

// CountByKind returns cumulative per-kind event counts, including
// events the ring has since overwritten.
func (st *SpanTrace) CountByKind() map[string]uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make(map[string]uint64)
	for k, n := range st.byKind[1:] {
		if n > 0 {
			out[EventKind(k+1).String()] = n
		}
	}
	return out
}

// WriteJSONL writes every retained record as one JSON object per line:
//
//	{"seq":12,"t":48211093,"kind":"page_fault","cat":"event","a":204,"b":17,"c":0,"dur":0}
//
// seq is the global record index (gaps mean ring overwrite), t and dur
// are ns on the store clock, kind is the event kind or span name, cat
// is "event" for kernel events and the span category otherwise, and
// a/b/c are the kind-specific operands (span End args in a/b).
//
// The final line is a footer making ring truncation visible instead of
// silent; its counts cover events and spans together:
//
//	{"footer":true,"emitted":70000,"retained":65536,"dropped":4464}
//
// Consumers that only want records can skip any line carrying "footer".
func (st *SpanTrace) WriteJSONL(w io.Writer) error {
	recs, emitted := st.snapshot()
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		// Hand-rolled: the schema is flat and fixed, and this keeps the
		// dump allocation-light for big rings.
		if _, err := fmt.Fprintf(bw,
			`{"seq":%d,"t":%d,"kind":%q,"cat":%q,"a":%d,"b":%d,"c":%d,"dur":%d}`+"\n",
			r.Seq, r.Start, r.Name, r.Cat, r.A, r.B, r.C, r.Dur); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw,
		`{"footer":true,"emitted":%d,"retained":%d,"dropped":%d}`+"\n",
		emitted, len(recs), emitted-uint64(len(recs))); err != nil {
		return err
	}
	return bw.Flush()
}

// chromeEvent is one Chrome trace-event object ("X" complete events);
// ts/dur are microseconds per the trace-event spec.
type chromeEvent struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	TS   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	PID  uint64          `json:"pid"`
	TID  uint64          `json:"tid"`
	Args chromeEventArgs `json:"args"`
}

type chromeEventArgs struct {
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent"`
	A      uint64 `json:"a"`
	B      uint64 `json:"b"`
	C      uint64 `json:"c"`
}

// chromeTrace is the JSON object format Perfetto and chrome://tracing
// load; DisplayTimeUnit only affects the UI's default zoom.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Dropped         uint64        `json:"droppedSpans,omitempty"` // events and spans overwritten
}

// WriteChromeTrace exports the retained records as Chrome trace-event
// JSON (the "JSON object format": a traceEvents array of ph:"X"
// complete events). Each span's causal links ride in args.span /
// args.parent; nesting in the viewer comes from time containment on
// the span's track. Kernel events are zero-duration records on track 0
// with args.span 0.
func (st *SpanTrace) WriteChromeTrace(w io.Writer) error {
	recs, emitted := st.snapshot()
	ct := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)),
		DisplayTimeUnit: "ns",
		Dropped:         emitted - uint64(len(recs)),
	}
	for _, r := range recs {
		ct.TraceEvents = append(ct.TraceEvents, chromeEvent{
			Name: r.Name,
			Cat:  r.Cat,
			Ph:   "X",
			TS:   float64(r.Start) / 1e3,
			Dur:  float64(r.Dur) / 1e3,
			PID:  1,
			TID:  r.Track,
			Args: chromeEventArgs{Span: uint64(r.ID), Parent: uint64(r.Parent), A: r.A, B: r.B, C: r.C},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}

var (
	spansOn   atomic.Bool
	spanTrace atomic.Pointer[SpanTrace]
	spanSeq   atomic.Uint64 // span ID allocator; IDs are never 0
	spanRoots atomic.Uint64 // root-site counter for sampling
	spanEvery atomic.Uint64 // record every N-th root

	// spanEpoch anchors the store clock: time.Now() deltas against one
	// base keep the math monotonic-clock backed and the exported
	// microseconds small.
	spanEpoch = time.Now()
)

const defaultSpanSampleEvery = 64

func init() { spanEvery.Store(defaultSpanSampleEvery) }

func spanNow() int64 { return int64(time.Since(spanEpoch)) }

// EnableSpans installs a fresh trace store of the given capacity and
// turns recording on: kernel events from Emit, and every
// SpanSampleEvery-th root span with its children. It is the only switch
// for the trace.
func EnableSpans(capacity int) *SpanTrace {
	st := &SpanTrace{buf: make([]SpanRecord, 0, max(capacity, 1))}
	spanTrace.Store(st)
	spansOn.Store(true)
	return st
}

// DisableSpans turns event and span recording off; the current store
// stays readable via CurrentSpans.
func DisableSpans() { spansOn.Store(false) }

// SpansEnabled reports whether the trace store is recording; hook
// points that must do extra work to build an event (e.g. timing an
// upcall) check it first. It is a single atomic load.
func SpansEnabled() bool { return spansOn.Load() }

// CurrentSpans returns the installed trace store, or nil.
func CurrentSpans() *SpanTrace { return spanTrace.Load() }

// SetSpanSampleEvery records every n-th root span (1 = all). Sampling
// happens at the root: children of an unsampled root cost nothing, so n
// is the single knob trading trace completeness for hot-path overhead.
// Kernel events are never sampled.
func SetSpanSampleEvery(n int) error {
	if n < 1 {
		return fmt.Errorf("telemetry: span sample rate must be >= 1, got %d", n)
	}
	spanEvery.Store(uint64(n))
	return nil
}

// RootSpan opens a new causal trace at a kernel emit point. With
// tracing off this is one atomic load. The span's track (Chrome tid)
// is its own ID, so each sampled trace renders on a clean lane with
// children nested by time containment; shard or worker identity
// belongs in the End args.
func RootSpan(name, cat string) Span {
	if !spansOn.Load() {
		return Span{}
	}
	if every := spanEvery.Load(); every > 1 && spanRoots.Add(1)%every != 0 {
		return Span{}
	}
	id := SpanID(spanSeq.Add(1))
	return Span{id: id, track: uint64(id), name: name, cat: cat, start: spanNow()}
}

// ChildSpan opens a span under ctx; inactive contexts yield inactive
// spans without touching any global state.
func ChildSpan(ctx SpanCtx, name, cat string) Span {
	if ctx.Parent == 0 {
		return Span{}
	}
	return Span{
		id:     SpanID(spanSeq.Add(1)),
		parent: ctx.Parent,
		track:  ctx.Track,
		name:   name,
		cat:    cat,
		start:  spanNow(),
	}
}

// End closes the span, attaching two free-form args (candidate page and
// outcome for evictions, byte counts for streams, …), and records it in
// the current store.
func (s Span) End(a, b uint64) {
	if s.id == 0 {
		return
	}
	st := spanTrace.Load()
	if st == nil {
		return
	}
	st.record(SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Cat:    s.cat,
		Track:  s.track,
		Start:  s.start,
		Dur:    spanNow() - s.start,
		A:      a,
		B:      b,
	})
}
