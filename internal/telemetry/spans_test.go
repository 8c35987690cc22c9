package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"
)

func resetSpans(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		DisableSpans()
		if err := SetSpanSampleEvery(defaultSpanSampleEvery); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSpanSampleEveryValidation(t *testing.T) {
	for _, bad := range []int{0, -1} {
		if err := SetSpanSampleEvery(bad); err == nil {
			t.Errorf("SetSpanSampleEvery(%d) accepted", bad)
		}
	}
	if err := SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	if err := SetSpanSampleEvery(defaultSpanSampleEvery); err != nil {
		t.Fatal(err)
	}
}

func TestSpansDisabledAreInert(t *testing.T) {
	resetSpans(t)
	DisableSpans()
	sp := RootSpan("kernel:evict", "kernel")
	if sp.Active() {
		t.Fatal("root span active while disabled")
	}
	cs := ChildSpan(sp.Ctx(), "policy", "policy")
	if cs.Active() {
		t.Fatal("child of inactive span is active")
	}
	cs.End(1, 2) // must not panic or record
	sp.End(3, 4)
}

func TestSpanNesting(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(64)
	if err := SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}

	root := RootSpan("kernel:evict", "kernel")
	if !root.Active() {
		t.Fatal("root span inactive with sampling=1")
	}
	child := ChildSpan(root.Ctx(), "policy:evict", "policy")
	grand := ChildSpan(child.Ctx(), "engine:bytecode", "engine")
	grand.End(0, 0)
	child.End(0, 0)
	root.End(100, 105)

	spans := st.Records()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	// Records land innermost-first; all share the root's track.
	g, c, r := spans[0], spans[1], spans[2]
	if r.Parent != 0 || c.Parent != r.ID || g.Parent != c.ID {
		t.Errorf("parent chain broken: root=%+v child=%+v grand=%+v", r, c, g)
	}
	if c.Track != r.Track || g.Track != r.Track || r.Track != uint64(r.ID) {
		t.Errorf("tracks diverge: %d %d %d", r.Track, c.Track, g.Track)
	}
	if r.A != 100 || r.B != 105 {
		t.Errorf("root args = %d,%d", r.A, r.B)
	}
	// Children start no earlier and end no later than the root.
	if g.Start < r.Start || g.Start+g.Dur > r.Start+r.Dur {
		t.Errorf("grandchild [%d,%d] escapes root [%d,%d]",
			g.Start, g.Start+g.Dur, r.Start, r.Start+r.Dur)
	}
}

func TestSpanSampling(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(1024)
	if err := SetSpanSampleEvery(8); err != nil {
		t.Fatal(err)
	}
	active := 0
	for i := 0; i < 64; i++ {
		sp := RootSpan("kernel:evict", "kernel")
		if sp.Active() {
			active++
			sp.End(0, 0)
		}
	}
	if active != 8 {
		t.Errorf("sampled %d of 64 roots, want 8", active)
	}
	if st.Len() != 8 {
		t.Errorf("ring holds %d", st.Len())
	}
}

func TestSpanRingWrap(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(4)
	if err := SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	var last SpanID
	for i := 0; i < 10; i++ {
		sp := RootSpan("kernel:evict", "kernel")
		last = sp.ID()
		sp.End(uint64(i), 0)
	}
	if st.Len() != 4 {
		t.Errorf("ring holds %d, want 4", st.Len())
	}
	if st.Dropped() != 6 {
		t.Errorf("dropped = %d, want 6", st.Dropped())
	}
	spans := st.Records()
	if spans[len(spans)-1].ID != last {
		t.Errorf("newest span not last: %d vs %d", spans[len(spans)-1].ID, last)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].A != spans[i-1].A+1 {
			t.Errorf("retained spans out of order: %v", spans)
		}
	}
}

// TestChromeTraceSchema asserts the export is well-formed Chrome
// trace-event JSON: it must parse, every event must be a ph:"X"
// complete event with numeric ts/dur and pid/tid, and the causal links
// in args must reference spans in the trace.
func TestChromeTraceSchema(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(64)
	if err := SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	root := RootSpan("kernel:evict", "kernel")
	child := ChildSpan(root.Ctx(), "policy:evict", "policy")
	child.End(7, 0)
	root.End(100, 105)

	var buf bytes.Buffer
	if err := st.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}

	var trace struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Cat  string   `json:"cat"`
			Ph   string   `json:"ph"`
			TS   *float64 `json:"ts"`
			Dur  *float64 `json:"dur"`
			PID  *uint64  `json:"pid"`
			TID  *uint64  `json:"tid"`
			Args struct {
				Span   uint64 `json:"span"`
				Parent uint64 `json:"parent"`
			} `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(trace.TraceEvents))
	}
	ids := map[uint64]bool{}
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q: ph = %q, want X", ev.Name, ev.Ph)
		}
		if ev.Name == "" || ev.Cat == "" {
			t.Errorf("event missing name/cat: %+v", ev)
		}
		if ev.TS == nil || ev.Dur == nil || *ev.TS < 0 || *ev.Dur < 0 {
			t.Errorf("event %q: bad ts/dur", ev.Name)
		}
		if ev.PID == nil || ev.TID == nil || *ev.TID == 0 {
			t.Errorf("event %q: missing pid/tid", ev.Name)
		}
		if ev.Args.Span == 0 {
			t.Errorf("event %q: args.span missing", ev.Name)
		}
		ids[ev.Args.Span] = true
	}
	for _, ev := range trace.TraceEvents {
		if p := ev.Args.Parent; p != 0 && !ids[p] {
			t.Errorf("event %q: parent %d not in trace", ev.Name, p)
		}
	}
	if trace.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
}
