package main

import (
	"bytes"
	"strings"
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

var unsafeClass = classes[0]

func TestEvictCorruptedOutputCaught(t *testing.T) {
	b, err := startEvict(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.newLane(unsafeClass, nil, residentMemory(grafts.PEMemSize))
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if err := b.prepare(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.run(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	pager := l.(*evictLane).pager
	ref := b.(*evictBench).ref

	lru := pager.LRUPages()
	lru[3], lru[4] = lru[4], lru[3]
	if err := ref.compare(pager.Stats(), lru); err == nil {
		t.Error("swapped LRU order not caught")
	}
	st := pager.Stats()
	st.PolicyOverrides++
	if err := ref.compare(st, pager.LRUPages()); err == nil {
		t.Error("wrong override count not caught")
	}
}

func TestLDCorruptedOutputCaught(t *testing.T) {
	b, err := startLD(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	l, err := b.newLane(unsafeClass, nil, residentMemory(grafts.LDMemSize))
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if err := b.prepare(0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.run(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	m := l.(*ldLane).g.Memory()
	blk := b.(*ldBench).stream[12345]
	addr := uint32(grafts.LDMapBase + 4*blk)
	m.St32U(addr, m.Ld32U(addr)+1)
	if err := l.check(); err == nil {
		t.Error("corrupted mapping entry not caught")
	}
}

func TestPFCorruptedOutputCaught(t *testing.T) {
	bb, err := startPF(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer bb.close()
	b := bb.(*pfBench)
	l, err := b.newLane(unsafeClass, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close()
	if _, _, err := l.run(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err != nil {
		t.Fatalf("clean run rejected: %v", err)
	}
	// Serve the trace with the verdicts each port would give the other.
	b.want[0], b.want[1] = b.want[1], b.want[0]
	if _, _, err := l.run(nil); err != nil {
		t.Fatal(err)
	}
	if err := l.check(); err == nil {
		t.Error("verdicts from the wrong port not caught")
	}
	a := l.(*pfLane).slot.Accounting()
	a.Committed--
	if err := checkLedger(a); err == nil {
		t.Error("unbalanced slot ledger not caught")
	}
}

// TestCountsRepeat runs each workload's traced mode twice with one seed
// and requires the deterministic per-layer counts to repeat exactly.
func TestCountsRepeat(t *testing.T) {
	exact := []string{
		"kernel.policy_calls", "kernel.override_ratio", "kernel.policy_errors",
		"aot.proven_load_ratio", "aot.proven_store_ratio",
		"ld.segment_flushes", "disk.virtual_s", "lifecycle.swaps",
	}
	// Fuel and allocations per call repeat where one goroutine does all
	// the work and the benchmark's decorator reads fuel after every call.
	// pf-live reads fuel from the telemetry registry, whose batched
	// flushes and swap-timed version routing vary, and its control plane
	// allocates concurrently; the upcall server's channel handoffs
	// allocate a varying few sudogs.
	perEngine := []string{
		"native-safe.fuel_per_call", "sfi.fuel_per_call", "bytecode.fuel_per_call", "aot.fuel_per_call",
		"compiled-unsafe.allocs_per_event", "native-safe.allocs_per_event", "sfi.allocs_per_event",
		"bytecode.allocs_per_event", "aot.allocs_per_event",
	}
	for _, w := range []string{"evict-tpcb", "ld-write", "pf-live"} {
		if testing.Short() && w == "ld-write" {
			continue
		}
		var runs [2]*result
		for i := range runs {
			res, err := execute(options{workload: w, seed: 3, trace: true, rounds: 1})
			if err != nil {
				t.Fatalf("%s: %v", w, err)
			}
			if !res.correct || res.failed != 0 {
				t.Fatalf("%s: correct=%t failed=%d info=%v", w, res.correct, res.failed, res.info)
			}
			runs[i] = res
		}
		names := exact
		if w != "pf-live" {
			names = append(names, perEngine...)
		}
		for _, name := range names {
			a, okA := runs[0].metrics.get(name)
			b, okB := runs[1].metrics.get(name)
			if !okA || !okB || a != b {
				t.Errorf("%s: %s = %v then %v", w, name, a, b)
			}
		}
	}
}

func TestEveryMetricReported(t *testing.T) {
	res, err := execute(options{workload: "evict-tpcb", seed: 1, rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.metrics.names) != 14 {
		t.Errorf("end-to-end run reports %d metrics, want 14: %v", len(res.metrics.names), res.metrics.names)
	}
	traced, err := execute(options{workload: "pf-live", seed: 1, trace: true, rounds: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range layerGroups {
		for _, nu := range g {
			if _, ok := traced.metrics.get(nu[0]); !ok {
				t.Errorf("traced run lacks %s", nu[0])
			}
		}
	}
	if got := len(traced.metrics.names); got != 59 {
		t.Errorf("traced run reports %d metrics, want 59", got)
	}
}

func TestDecoratorForwardsOptionalInterfaces(t *testing.T) {
	tr := newTracer()
	g, err := tech.Load(tech.Bytecode, grafts.LDMap, mem.New(grafts.LDMemSize), tech.Options{Fuel: fuelBudget})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.wrap(g, spanGraft)
	if _, ok := w.(tech.DirectCaller); !ok {
		t.Error("decorated VM lost Direct")
	}
	if _, ok := w.(tech.FuelReporter); !ok {
		t.Error("decorated VM lost FuelUsed")
	}
	d := upcall.NewDomain(g, 0)
	defer d.Close()
	wd := tr.wrap(d, spanGraft)
	if _, ok := wd.(tech.DirectCaller); ok {
		t.Error("decorated upcall.Domain gained Direct")
	}
	if _, ok := wd.(tech.FuelReporter); ok {
		t.Error("decorated upcall.Domain gained FuelUsed")
	}
}

func TestSelfTime(t *testing.T) {
	tr := newTracer()
	tr.spans = append(tr.spans,
		span{kind: spanLayer, parent: -1, start: 0, end: 100},
		span{kind: spanGraft, parent: 0, start: 10, end: 70},
		span{kind: spanInner, parent: 1, start: 20, end: 50},
	)
	tr.fold()
	if tr.self[spanLayer] != 40 || tr.self[spanGraft] != 30 || tr.self[spanInner] != 30 {
		t.Errorf("self times %v", tr.self)
	}
	if len(tr.spans) != 0 {
		t.Error("fold kept spans")
	}
}

func TestQuantileInterpolatesTies(t *testing.T) {
	s := []int32{10, 10, 10, 10, 20}
	if got := quantile(s, 0.5); got <= 9.5 || got >= 10.5 {
		t.Errorf("p50 of a tie run = %v, want inside (9.5, 10.5)", got)
	}
	if got := quantile(s, 0.99); got < 19.5 || got > 20.5 {
		t.Errorf("p99 = %v", got)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "pf-live", "--trace", "2"},
		{"--workload", "pf-live", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestResultLine(t *testing.T) {
	r := &result{correct: true, attempted: 3, metrics: &metrics{}}
	r.metrics.add("a.p50_ns", 1.25, "ns")
	line := r.line()
	if !strings.HasPrefix(line, `{"correct": true, "attempted": 3, "failed": 0, "metrics": {"a.p50_ns": {"value": 1.25, "unit": "ns"}}`) {
		t.Errorf("line = %s", line)
	}
}

func (m *metrics) get(name string) (float64, bool) {
	for i, n := range m.names {
		if n == name {
			return m.values[i], true
		}
	}
	return 0, false
}
