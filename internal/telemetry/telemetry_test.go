package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"

	"graftlab/internal/mem"
)

func TestEnabledFlag(t *testing.T) {
	defer SetEnabled(false)
	if !Disabled() {
		t.Fatal("telemetry should start disabled")
	}
	SetEnabled(true)
	if Disabled() || !Enabled() {
		t.Fatal("SetEnabled(true) did not take")
	}
}

func TestRegisterDedup(t *testing.T) {
	defer ResetMetrics()
	a := Register("md5", "bytecode")
	b := Register("md5", "bytecode")
	if a != b {
		t.Fatal("Register should return the same accumulator for the same pair")
	}
	if c := Register("md5", "script"); c == a {
		t.Fatal("different technology must get its own accumulator")
	}
	if got := len(Metrics()); got != 2 {
		t.Fatalf("Metrics() = %d entries, want 2", got)
	}
}

func TestGraftMetricsCounters(t *testing.T) {
	defer ResetMetrics()
	m := Register("pageevict", "compiled-unsafe")
	m.AddInvocations(4)
	m.AddInvocations(6)
	m.AddFuel(100)
	m.AddFuel(50)
	m.RecordError(&mem.Trap{Kind: mem.TrapFuel})
	m.RecordError(&mem.Trap{Kind: mem.TrapOOBLoad})
	m.RecordError(fmt.Errorf("plain failure"))
	m.RecordLatency(1500 * time.Nanosecond)

	if m.Invocations() != 10 {
		t.Errorf("Invocations = %d, want 10", m.Invocations())
	}
	if m.FuelConsumed() != 150 {
		t.Errorf("FuelConsumed = %d, want 150", m.FuelConsumed())
	}
	if m.FuelPreemptions() != 1 {
		t.Errorf("FuelPreemptions = %d, want 1", m.FuelPreemptions())
	}
	s := m.Snapshot()
	if s.Traps[mem.TrapOOBLoad.String()] != 1 {
		t.Errorf("Traps[%s] = %d, want 1", mem.TrapOOBLoad, s.Traps[mem.TrapOOBLoad.String()])
	}
	if s.Errors != 1 || s.Traps["fuel exhausted"] != 1 || s.LatencySamples != 1 {
		t.Errorf("snapshot = %+v", s)
	}
	// Snapshots with no invocations are elided from SnapshotAll.
	Register("idle", "script")
	if got := len(SnapshotAll()); got != 1 {
		t.Errorf("SnapshotAll = %d entries, want 1", got)
	}
}

func TestSampleInterval(t *testing.T) {
	defer ResetMetrics()
	defer SetSampleInterval(defaultSampleInterval)
	SetSampleInterval(1)
	if m := Register("all-sampled", "x"); m.Mask() != 0 {
		t.Fatalf("interval 1 must sample every invocation: mask %d, want 0", m.Mask())
	}
	SetSampleInterval(8)
	m2 := Register("one-in-eight", "x")
	n := 0
	for i := uint64(1); i <= 64; i++ {
		if i&m2.Mask() == 0 {
			n++
		}
	}
	if n != 8 {
		t.Errorf("interval 8 sampled %d of 64", n)
	}
	// Non-power-of-two rounds down.
	SetSampleInterval(100)
	if got := sampleMask.Load(); got != 63 {
		t.Errorf("interval 100 -> mask %d, want 63", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	// 1000 samples spread 1..1000µs: quantile estimates must land within
	// the matched power-of-two bucket (factor-2 accuracy bound).
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("Max = %v", h.Max())
	}
	checks := []struct {
		q     float64
		exact time.Duration
	}{{0.50, 500 * time.Microsecond}, {0.95, 950 * time.Microsecond}, {0.99, 990 * time.Microsecond}}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.exact/2 || got > c.exact*2 {
			t.Errorf("Quantile(%v) = %v, want within 2x of %v", c.q, got, c.exact)
		}
	}
	if h.Quantile(1) > h.Max() {
		t.Errorf("Quantile(1) = %v beyond max %v", h.Quantile(1), h.Max())
	}
	if m := h.Mean(); m < 400*time.Microsecond || m > 600*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", m)
	}
}

func TestHistogramConstantSamples(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(3 * time.Microsecond)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := h.Quantile(q)
		if got < 2*time.Microsecond || got > 3*time.Microsecond {
			t.Errorf("Quantile(%v) = %v, want within bucket of 3µs", q, got)
		}
	}
}

func TestTraceRing(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(4)
	for i := 0; i < 6; i++ {
		Emit(EvPageFault, uint64(i), 0, 0)
	}
	if st.Len() != 4 {
		t.Fatalf("Len = %d, want 4", st.Len())
	}
	if st.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", st.Dropped())
	}
	evs := st.Records()
	if len(evs) != 4 || evs[0].A != 2 || evs[3].A != 5 {
		t.Fatalf("Records = %+v", evs)
	}
	for i, e := range evs {
		if e.Kind != EvPageFault || e.Name != "page_fault" || e.Cat != EventCat || e.Dur != 0 || e.ID != 0 {
			t.Errorf("event record %+v, want a zero-duration page_fault event", e)
		}
		if i > 0 && e.Seq != evs[i-1].Seq+1 {
			t.Errorf("seq not monotonic: %d then %d", evs[i-1].Seq, e.Seq)
		}
	}
	if n := st.CountByKind()["page_fault"]; n != 6 {
		t.Errorf("CountByKind[page_fault] = %d, want 6 (cumulative)", n)
	}
}

type jsonlLine struct {
	Seq  uint64 `json:"seq"`
	T    int64  `json:"t"`
	Kind string `json:"kind"`
	Cat  string `json:"cat"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
	C    uint64 `json:"c"`
	Dur  *int64 `json:"dur"`
}

type jsonlFooter struct {
	Footer   bool   `json:"footer"`
	Emitted  uint64 `json:"emitted"`
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
}

func TestTraceJSONL(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(16)
	Emit(EvEvictDecision, 100, 105, EvictOverride)
	Emit(EvLDSegment, 7, 112, 16)
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 events + footer", len(lines))
	}
	var ev jsonlLine
	if err := json.Unmarshal(lines[0], &ev); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v", err)
	}
	if ev.Kind != "evict_decision" || ev.A != 100 || ev.B != 105 || ev.C != EvictOverride {
		t.Errorf("decoded event = %+v", ev)
	}
	if ev.T == 0 {
		t.Error("event timestamp missing")
	}
	if ev.Cat != EventCat || ev.Dur == nil || *ev.Dur != 0 {
		t.Errorf("event line cat/dur = %q/%v, want event/0", ev.Cat, ev.Dur)
	}
	if err := json.Unmarshal(lines[1], &ev); err != nil || ev.Kind != "ld_segment" {
		t.Errorf("line 1: %v, kind %q", err, ev.Kind)
	}
	var foot jsonlFooter
	if err := json.Unmarshal(lines[2], &foot); err != nil {
		t.Fatalf("footer is not valid JSON: %v", err)
	}
	if !foot.Footer || foot.Emitted != 2 || foot.Retained != 2 || foot.Dropped != 0 {
		t.Errorf("footer = %+v, want footer:true emitted:2 retained:2 dropped:0", foot)
	}
}

// TestTraceJSONLFooterDropped: the footer accounts for events and spans
// sharing the ring, and the retained span lines carry their duration.
func TestTraceJSONLFooterDropped(t *testing.T) {
	resetSpans(t)
	st := EnableSpans(4)
	if err := SetSpanSampleEvery(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		Emit(EvPageFault, uint64(i), 0, 0)
		sp := RootSpan("kernel:evict", "kernel")
		time.Sleep(time.Microsecond)
		sp.End(uint64(i), 0)
	}
	var buf bytes.Buffer
	if err := st.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var foot jsonlFooter
	if err := json.Unmarshal(lines[len(lines)-1], &foot); err != nil {
		t.Fatalf("footer: %v", err)
	}
	if !foot.Footer || foot.Emitted != 10 || foot.Retained != 4 || foot.Dropped != 6 {
		t.Errorf("footer = %+v, want emitted:10 retained:4 dropped:6", foot)
	}
	// Per-kind counts survive the wrap and do not count spans.
	if got := st.CountByKind(); len(got) != 1 || got["page_fault"] != 5 {
		t.Errorf("CountByKind = %v, want page_fault:5 only", got)
	}
	var spans, events int
	for _, l := range lines[:len(lines)-1] {
		var r jsonlLine
		if err := json.Unmarshal(l, &r); err != nil {
			t.Fatal(err)
		}
		switch {
		case r.Kind == "kernel:evict" && r.Cat == "kernel" && r.Dur != nil && *r.Dur > 0:
			spans++
		case r.Kind == "page_fault" && r.Cat == EventCat:
			events++
		default:
			t.Errorf("unexpected line %s", l)
		}
	}
	if spans != 2 || events != 2 {
		t.Errorf("retained %d spans and %d events, want 2 and 2", spans, events)
	}
}

func TestGlobalTraceToggle(t *testing.T) {
	resetSpans(t)
	DisableSpans()
	Emit(EvSchedPick, 1, 0, 0) // must be a no-op, not a panic
	st := EnableSpans(8)
	if !SpansEnabled() {
		t.Fatal("EnableSpans did not enable")
	}
	Emit(EvSchedPick, 1, 0, 0)
	if got := st.Len(); got != 1 {
		t.Fatalf("trace store Len = %d, want 1", got)
	}
	DisableSpans()
	Emit(EvSchedPick, 2, 0, 0)
	if got := CurrentSpans().Len(); got != 1 {
		t.Fatalf("disabled store still recorded: Len = %d", got)
	}
}

// TestConcurrentRecording is the race-detector gate for the atomic
// counters: many goroutines hammer one accumulator and the trace store
// while a reader snapshots concurrently.
func TestConcurrentRecording(t *testing.T) {
	defer ResetMetrics()
	resetSpans(t)
	EnableSpans(128)
	m := Register("concurrent", "x")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				m.AddInvocations(1)
				if uint64(i)&m.Mask() == 0 {
					m.RecordLatency(time.Duration(i) * time.Nanosecond)
				}
				m.AddFuel(1)
				if i%100 == 0 {
					m.RecordError(&mem.Trap{Kind: mem.TrapOOBStore})
				}
				Emit(EvPageFault, uint64(i), 0, 0)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			_ = m.Snapshot()
			_ = CurrentSpans().Records()
		}
	}()
	wg.Wait()
	<-done
	if m.Invocations() != workers*per {
		t.Errorf("Invocations = %d, want %d", m.Invocations(), workers*per)
	}
	if m.FuelConsumed() != workers*per {
		t.Errorf("FuelConsumed = %d, want %d", m.FuelConsumed(), workers*per)
	}
	if got := CurrentSpans().CountByKind()["page_fault"]; got != workers*per {
		t.Errorf("trace count = %d, want %d", got, workers*per)
	}
}
