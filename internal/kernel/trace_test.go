package kernel

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// withTrace turns the trace store on for one test at the default
// 1-in-64 root-span sampling rate, and restores both afterwards.
func withTrace(t *testing.T, capacity int) *telemetry.SpanTrace {
	t.Helper()
	st := telemetry.EnableSpans(capacity)
	if err := telemetry.SetSpanSampleEvery(64); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		telemetry.DisableSpans()
		_ = telemetry.SetSpanSampleEvery(64)
	})
	return st
}

// events returns the retained event records of one kind.
func events(st *telemetry.SpanTrace, kind telemetry.EventKind) []telemetry.SpanRecord {
	var out []telemetry.SpanRecord
	for _, r := range st.Records() {
		if r.Kind == kind {
			out = append(out, r)
		}
	}
	return out
}

func TestPagerEmitsTraceEvents(t *testing.T) {
	st := withTrace(t, 1024)
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 4, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	// 8 distinct pages through 4 frames: 8 faults, 4 evictions.
	for pg := PageID(0); pg < 8; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}
	counts := st.CountByKind()
	if counts["page_fault"] != 8 {
		t.Errorf("page_fault events = %d, want 8 (%v)", counts["page_fault"], counts)
	}
	if counts["evict_decision"] != 4 {
		t.Errorf("evict_decision events = %d, want 4 (%v)", counts["evict_decision"], counts)
	}
	// Events are never sampled: at 1-in-64 root sampling every fault
	// is still a retained record.
	if n := len(events(st, telemetry.EvPageFault)); n != 8 {
		t.Errorf("retained page_fault records = %d, want 8", n)
	}
	// No policy installed: every decision is EvictDefault with chosen ==
	// candidate.
	for _, e := range events(st, telemetry.EvEvictDecision) {
		if e.C != telemetry.EvictDefault || e.A != e.B {
			t.Fatalf("policy-less eviction event %+v, want default outcome", e)
		}
	}
}

func TestEvictDecisionOutcomeCodes(t *testing.T) {
	st := withTrace(t, 64)
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 2, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	outcomes := []struct {
		policy EvictionPolicyFunc
		want   uint64
	}{
		{func(_ telemetry.SpanCtx, p *Pager, c PageID) (PageID, error) { return InvalidPage, nil }, telemetry.EvictAccepted},
		{func(_ telemetry.SpanCtx, p *Pager, c PageID) (PageID, error) { return PageID(9999), nil }, telemetry.EvictRejected},
		{func(_ telemetry.SpanCtx, p *Pager, c PageID) (PageID, error) { return 0, fmt.Errorf("trap") }, telemetry.EvictErrored},
		{func(_ telemetry.SpanCtx, p *Pager, c PageID) (PageID, error) {
			for _, r := range p.LRUPages() {
				if r != c {
					return r, nil
				}
			}
			return InvalidPage, nil
		}, telemetry.EvictOverride},
	}
	next := PageID(0)
	fill := func() {
		for i := 0; i < 2; i++ {
			if _, err := p.Access(next); err != nil {
				t.Fatal(err)
			}
			next++
		}
	}
	fill()
	for _, tc := range outcomes {
		p.SetPolicy(tc.policy)
		before := st.CountByKind()["evict_decision"]
		if _, err := p.Access(next); err != nil {
			t.Fatal(err)
		}
		next++
		var last *telemetry.SpanRecord
		if evs := events(st, telemetry.EvEvictDecision); len(evs) > 0 {
			last = &evs[len(evs)-1]
		}
		after := st.CountByKind()["evict_decision"]
		if after != before+1 {
			t.Fatalf("expected exactly one evict_decision, got %d", after-before)
		}
		if last == nil || last.C != tc.want {
			t.Errorf("outcome = %+v, want code %d", last, tc.want)
		}
	}
}

func TestStreamAndSchedEmitTraceEvents(t *testing.T) {
	st := withTrace(t, 256)
	c := NewChain(nil, FilterFunc{FilterName: "id", Fn: func(p []byte) ([]byte, error) { return p, nil }})
	if _, err := c.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	clock := &vclock.Clock{}
	s := NewScheduler(time.Millisecond, clock)
	s.Spawn("a", 0)
	s.Spawn("b", 0)
	s.SetPolicy(SchedPolicyFunc(func(runnable []*Proc) (int, error) {
		return len(runnable) - 1, nil
	}))
	if _, err := s.Tick(); err != nil {
		t.Fatal(err)
	}
	var stream, sched *telemetry.SpanRecord
	for _, e := range st.Records() {
		e := e
		switch e.Kind {
		case telemetry.EvStreamPass:
			stream = &e
		case telemetry.EvSchedPick:
			sched = &e
		}
	}
	if stream == nil || stream.B != 100 || stream.C != 100 {
		t.Errorf("stream_pass = %+v, want 100 bytes in and out", stream)
	}
	if sched == nil || sched.C != 1 {
		t.Errorf("sched_pick = %+v, want a policy override", sched)
	}
}

func TestTraceDisabledEmitsNothing(t *testing.T) {
	st := telemetry.EnableSpans(16)
	telemetry.DisableSpans()
	before := st.Len()
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 2, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Access(1); err != nil {
		t.Fatal(err)
	}
	if got := st.Len(); got != before {
		t.Errorf("disabled trace grew from %d to %d events", before, got)
	}
}

// TestChromeTraceEventsBesideSpans: one sampled eviction exports its
// kernel:evict -> policy:evict span chain and, beside it in the same
// Chrome trace, the zero-duration event records of the same fault.
func TestChromeTraceEventsBesideSpans(t *testing.T) {
	st := withTrace(t, 256)
	if err := telemetry.SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	p, err := NewPager(PagerConfig{Frames: 2, FaultTime: time.Millisecond}, &vclock.Clock{})
	if err != nil {
		t.Fatal(err)
	}
	p.SetPolicy(EvictionPolicyFunc(func(ctx telemetry.SpanCtx, _ *Pager, c PageID) (PageID, error) {
		telemetry.ChildSpan(ctx, "policy:evict", "policy").End(uint64(c), 0)
		return InvalidPage, nil
	}))
	for pg := PageID(0); pg < 3; pg++ {
		if _, err := p.Access(pg); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	type chromeEvent struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Args struct {
			Span   uint64 `json:"span"`
			Parent uint64 `json:"parent"`
			A      uint64 `json:"a"`
			B      uint64 `json:"b"`
			C      uint64 `json:"c"`
		} `json:"args"`
	}
	var trace struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid Chrome trace JSON: %v", err)
	}
	find := func(name string) (int, *chromeEvent) {
		for i := range trace.TraceEvents {
			if trace.TraceEvents[i].Name == name {
				return i, &trace.TraceEvents[i]
			}
		}
		t.Fatalf("no %q record in %+v", name, trace.TraceEvents)
		return 0, nil
	}
	_, pol := find("policy:evict")
	ri, root := find("kernel:evict")
	if pol.Args.Parent != root.Args.Span || root.Args.Parent != 0 {
		t.Errorf("policy:evict parent %d, want kernel:evict root %d", pol.Args.Parent, root.Args.Span)
	}
	// The eviction's decision event is the record right after its
	// root span, for the same candidate page, timed after the span (1ns
	// slack absorbs the float rounding of the microsecond export).
	if ri+1 >= len(trace.TraceEvents) {
		t.Fatal("no record follows the kernel:evict span")
	}
	ev := trace.TraceEvents[ri+1]
	if ev.Name != "evict_decision" || ev.Cat != telemetry.EventCat || ev.Ph != "X" || ev.Dur != 0 {
		t.Fatalf("record after kernel:evict = %+v, want a zero-duration evict_decision event", ev)
	}
	if ev.Args.A != root.Args.A || ev.Args.C != telemetry.EvictAccepted || ev.TS+1e-3 < root.TS+root.Dur {
		t.Errorf("evict_decision %+v does not follow its span %+v", ev, root)
	}
	if _, fault := find("page_fault"); fault.Cat != telemetry.EventCat || fault.Dur != 0 {
		t.Errorf("page_fault record = %+v, want a zero-duration event", fault)
	}
}
