package kernel

import (
	"fmt"
	"testing"
	"time"

	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
)

// withTrace turns the global event trace on for one test.
func withTrace(t *testing.T, capacity int) {
	t.Helper()
	telemetry.EnableTrace(capacity)
	t.Cleanup(telemetry.DisableTrace)
}

func TestPagerEmitsTraceEvents(t *testing.T) {
	withTrace(t, 1024)
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
	counts := telemetry.CurrentTrace().CountByKind()
	if counts["page_fault"] != 8 {
		t.Errorf("page_fault events = %d, want 8 (%v)", counts["page_fault"], counts)
	}
	if counts["evict_decision"] != 4 {
		t.Errorf("evict_decision events = %d, want 4 (%v)", counts["evict_decision"], counts)
	}
	// No policy installed: every decision is EvictDefault with chosen ==
	// candidate.
	for _, e := range telemetry.CurrentTrace().Events() {
		if e.Kind != telemetry.EvEvictDecision {
			continue
		}
		if e.C != telemetry.EvictDefault || e.A != e.B {
			t.Fatalf("policy-less eviction event %+v, want default outcome", e)
		}
	}
}

func TestEvictDecisionOutcomeCodes(t *testing.T) {
	withTrace(t, 64)
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
		before := telemetry.CurrentTrace().CountByKind()["evict_decision"]
		if _, err := p.Access(next); err != nil {
			t.Fatal(err)
		}
		next++
		evs := telemetry.CurrentTrace().Events()
		var last *telemetry.Event
		for i := range evs {
			if evs[i].Kind == telemetry.EvEvictDecision {
				last = &evs[i]
			}
		}
		after := telemetry.CurrentTrace().CountByKind()["evict_decision"]
		if after != before+1 {
			t.Fatalf("expected exactly one evict_decision, got %d", after-before)
		}
		if last == nil || last.C != tc.want {
			t.Errorf("outcome = %+v, want code %d", last, tc.want)
		}
	}
}

func TestStreamAndSchedEmitTraceEvents(t *testing.T) {
	withTrace(t, 256)
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
	var stream, sched *telemetry.Event
	for _, e := range telemetry.CurrentTrace().Events() {
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
	telemetry.EnableTrace(16)
	telemetry.DisableTrace()
	before := telemetry.CurrentTrace().Len()
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: 2, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Access(1); err != nil {
		t.Fatal(err)
	}
	if got := telemetry.CurrentTrace().Len(); got != before {
		t.Errorf("disabled trace grew from %d to %d events", before, got)
	}
}
