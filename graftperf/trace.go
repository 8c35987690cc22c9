package main

import (
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

// clockBase anchors every timestamp the benchmark takes; time.Since on a
// value carrying a monotonic reading is a monotonic nanosecond clock.
var clockBase = time.Now()

func nanotime() int64 { return int64(time.Since(clockBase)) }

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	// spanLayer is the workload's own layer call: Pager.Access,
	// LD.Write or Slot.Do.
	spanLayer spanKind = iota
	// spanPrep is the pf-live Do prep step that writes the frame into
	// engine memory (the benchmark's kernel side, not the slot's work).
	spanPrep
	// spanGraft is the graft call as the hook makes it.
	spanGraft
	// spanInner is the engine call inside the upcall.Domain server.
	spanInner
	numSpanKinds
)

type span struct {
	kind       spanKind
	parent     int32
	start, end int64
}

// tracer records spans at layer boundaries into a buffer it owns and
// folds them into per-kind totals after every event, outside the
// event's timed region. It is used by one caller goroutine at a time:
// the only other writer, the upcall server goroutine, runs while the
// caller is blocked on the synchronous crossing, and the channel
// handoff orders the two.
type tracer struct {
	spans []span
	open  int32

	dur  [numSpanKinds]int64 // summed span durations
	self [numSpanKinds]int64 // summed durations minus direct children
	n    [numSpanKinds]int64

	// fuel and fuelCalls accumulate FuelUsed after every graft call of a
	// metered engine.
	fuel, fuelCalls int64
}

// maxSpansPerEvent bounds the buffer: an ld-write event is 16 writes of
// at most four spans each, and a pf-live event retries rarely.
const maxSpansPerEvent = 256

func newTracer() *tracer {
	return &tracer{spans: make([]span, 0, maxSpansPerEvent), open: -1}
}

func (t *tracer) begin(k spanKind) int32 {
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, parent: t.open, start: nanotime()})
	t.open = i
	return i
}

func (t *tracer) end(i int32) {
	t.spans[i].end = nanotime()
	t.open = t.spans[i].parent
}

// fold adds the finished event's spans to the totals and empties the
// buffer. A span's self time is its duration minus that of its direct
// children.
func (t *tracer) fold() {
	for i := range t.spans {
		s := &t.spans[i]
		d := s.end - s.start
		t.dur[s.kind] += d
		t.self[s.kind] += d
		t.n[s.kind]++
		if s.parent >= 0 {
			t.self[t.spans[s.parent].kind] -= d
		}
	}
	t.discard()
}

// discard drops spans recorded outside any event (set-up and per-slice
// resets call into decorated grafts too).
func (t *tracer) discard() {
	t.spans = t.spans[:0]
	t.open = -1
}

func (t *tracer) meanDur(k spanKind) float64 { return ratio(float64(t.dur[k]), float64(t.n[k])) }

// The decorators below record a span around every graft call and
// forward exactly the optional interfaces the wrapped value has, so a
// traced lane takes the same call path as an untraced one: a hook that
// resolves tech.DirectCaller still gets a direct function, and one that
// falls back to Invoke still does.

type tgraft struct {
	inner tech.Graft
	tr    *tracer
	kind  spanKind
	fuel  tech.FuelReporter // nil unless the engine is metered
}

func (g *tgraft) Invoke(entry string, args ...uint32) (uint32, error) {
	i := g.tr.begin(g.kind)
	v, err := g.inner.Invoke(entry, args...)
	g.tr.end(i)
	g.noteFuel()
	return v, err
}

func (g *tgraft) Memory() *mem.Memory { return g.inner.Memory() }

func (g *tgraft) noteFuel() {
	if g.fuel != nil {
		g.tr.fuel += g.fuel.FuelUsed()
		g.tr.fuelCalls++
	}
}

func (g *tgraft) direct(entry string) (func(args []uint32) (uint32, error), bool) {
	fn, ok := g.inner.(tech.DirectCaller).Direct(entry)
	if !ok {
		return nil, false
	}
	return func(args []uint32) (uint32, error) {
		i := g.tr.begin(g.kind)
		v, err := fn(args)
		g.tr.end(i)
		g.noteFuel()
		return v, err
	}, true
}

type tgraftDirect struct{ *tgraft }

func (g tgraftDirect) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	return g.direct(entry)
}

type tgraftFuel struct{ *tgraft }

func (g tgraftFuel) FuelUsed() int64 { return g.fuel.FuelUsed() }

type tgraftDirectFuel struct{ *tgraft }

func (g tgraftDirectFuel) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	return g.direct(entry)
}

func (g tgraftDirectFuel) FuelUsed() int64 { return g.fuel.FuelUsed() }

// wrap decorates g with spans of kind k.
func (t *tracer) wrap(g tech.Graft, k spanKind) tech.Graft {
	base := &tgraft{inner: g, tr: t, kind: k}
	_, direct := g.(tech.DirectCaller)
	fr, metered := g.(tech.FuelReporter)
	if metered {
		base.fuel = fr
	}
	switch {
	case direct && metered:
		return tgraftDirectFuel{base}
	case direct:
		return tgraftDirect{base}
	case metered:
		return tgraftFuel{base}
	}
	return base
}
