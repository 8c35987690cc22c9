package lifecycle_test

import (
	"errors"
	"fmt"
	"testing"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// decideSrc builds version ver of the "decide" graft: a pure function
// of its argument with the version baked into the result (so a result
// proves which version served it), a guaranteed out-of-bounds load at
// x == 13 (so trap behavior is comparable across versions), and an
// argument-dependent loop (so fuel consumption is observable).
func decideSrc(ver int) tech.Source {
	return tech.Source{
		Name: "decide",
		GEL: fmt.Sprintf(`
func decide(x) {
	if (x == 13) { return ld32(1048576); }
	var acc = %d;
	var i = 0;
	while (i < x) { acc = acc + 3; i = i + 1; }
	return acc + x * 31;
}
`, ver*1000),
	}
}

// decideValue is the oracle for decideSrc(ver) at x (x != 13).
func decideValue(ver int, x uint32) uint32 {
	return uint32(ver*1000) + 3*x + x*31
}

const decideMemSize = 1 << 12

func decideSlot(t *testing.T, id tech.ID) *lifecycle.Slot {
	t.Helper()
	return lifecycle.NewSlot("decide", id, lifecycle.Loader(id, decideMemSize, tech.Options{Fuel: 1 << 20}))
}

func TestSlotActivateAndInvoke(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if _, err := s.Invoke("decide", 5); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Fatalf("invoke on empty slot: %v, want ErrEmptySlot", err)
	}
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Activate(tech.NewArtifact(decideSrc(2), 2), nil); !errors.Is(err, lifecycle.ErrOccupied) {
		t.Fatalf("second Activate: %v, want ErrOccupied", err)
	}
	res, err := s.Invoke("decide", 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != decideValue(1, 5) || res.Version != 1 || res.Epoch != 1 || res.Canary {
		t.Fatalf("result = %+v", res)
	}
	if res.Fuel <= 0 {
		t.Fatalf("metered technology reported fuel %d", res.Fuel)
	}
	// A trap is a committed invocation, attributed to the version.
	if _, err := s.Invoke("decide", 13); err == nil {
		t.Fatal("OOB load did not trap")
	} else {
		var tr *mem.Trap
		if !errors.As(err, &tr) || tr.Kind != mem.TrapOOBLoad {
			t.Fatalf("trap = %v, want OOB load", err)
		}
	}
	a := s.Accounting()
	// The empty-slot invoke was never issued; the trap still commits.
	if a.Issued != 2 || a.Committed != 2 || a.Aborted != 0 {
		t.Fatalf("accounting = %+v, want issued=2 committed=2 aborted=0", a)
	}
}

func TestSlotAccountingSeparatesAbortedPrep(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("prep failed")
	if _, err := s.Do("decide", func(m *mem.Memory) error { return boom }, 5); !errors.Is(err, boom) {
		t.Fatalf("prep error not surfaced: %v", err)
	}
	if _, err := s.Do("decide", func(m *mem.Memory) error { return nil }, 5); err != nil {
		t.Fatal(err)
	}
	a := s.Accounting()
	if a.Issued != 2 || a.Committed != 1 || a.Aborted != 1 {
		t.Fatalf("accounting = %+v, want issued=2 committed=1 aborted=1", a)
	}
}

func TestStagePromoteRollbackDemoteStateMachine(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 4); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Fatalf("Stage on empty slot: %v, want ErrEmptySlot", err)
	}
	if err := s.Promote(); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Fatalf("Promote on empty slot: %v, want ErrEmptySlot", err)
	}
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Promote(); !errors.Is(err, lifecycle.ErrNoCandidate) {
		t.Fatalf("Promote without candidate: %v, want ErrNoCandidate", err)
	}
	if err := s.Rollback(); !errors.Is(err, lifecycle.ErrNoPrevious) {
		t.Fatalf("Rollback without previous: %v, want ErrNoPrevious", err)
	}

	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 4); err != nil {
		t.Fatal(err)
	}
	v1, v2 := s.Incumbent(), s.Candidate()
	if v1.Artifact.Version != 1 || v2.Artifact.Version != 2 {
		t.Fatalf("incumbent v%d candidate v%d", v1.Artifact.Version, v2.Artifact.Version)
	}
	if v1.State() != lifecycle.StateIncumbent || v2.State() != lifecycle.StateCandidate {
		t.Fatalf("states %v / %v", v1.State(), v2.State())
	}
	if s.Epoch() != 2 {
		t.Fatalf("epoch %d after stage, want 2", s.Epoch())
	}

	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	if got := s.Incumbent(); got != v2 || got.State() != lifecycle.StateIncumbent {
		t.Fatalf("incumbent after promote: v%d %v", got.Artifact.Version, got.State())
	}
	if v1.State() != lifecycle.StateRetired {
		t.Fatalf("displaced incumbent state %v, want retired", v1.State())
	}
	if s.Candidate() != nil {
		t.Fatal("candidate survived promote")
	}
	res, err := s.Invoke("decide", 7)
	if err != nil || res.Value != decideValue(2, 7) || res.Version != 2 {
		t.Fatalf("post-promote invoke = %+v, %v", res, err)
	}

	if err := s.Rollback(); err != nil {
		t.Fatal(err)
	}
	if got := s.Incumbent(); got != v1 || got.State() != lifecycle.StateIncumbent {
		t.Fatalf("incumbent after rollback: v%d %v", got.Artifact.Version, got.State())
	}
	if v2.State() != lifecycle.StateDemoted {
		t.Fatalf("rolled-back incumbent state %v, want demoted", v2.State())
	}
	if err := s.Rollback(); !errors.Is(err, lifecycle.ErrNoPrevious) {
		t.Fatalf("second Rollback: %v, want ErrNoPrevious (target consumed)", err)
	}

	if err := s.Demote(); !errors.Is(err, lifecycle.ErrNoCandidate) {
		t.Fatalf("Demote without candidate: %v, want ErrNoCandidate", err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(3), 3), nil, 2); err != nil {
		t.Fatal(err)
	}
	v3 := s.Candidate()
	if err := s.Demote(); err != nil {
		t.Fatal(err)
	}
	if v3.State() != lifecycle.StateDemoted || s.Candidate() != nil || s.Incumbent() != v1 {
		t.Fatal("demote did not drop the candidate cleanly")
	}
	if got := len(s.Versions()); got != 3 {
		t.Fatalf("deploy history has %d versions, want 3", got)
	}
	a := s.Accounting()
	if a.Swaps != 1 || a.Rollbacks != 1 || a.Demotions != 1 {
		t.Fatalf("accounting = %+v, want 1 swap / 1 rollback / 1 demotion", a)
	}
}

func TestCanaryRouting(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 4); err != nil {
		t.Fatal(err)
	}
	var canaries int
	for i := 0; i < 40; i++ {
		res, err := s.Invoke("decide", 6)
		if err != nil {
			t.Fatal(err)
		}
		wantVer := uint64(1)
		if res.Canary {
			canaries++
			wantVer = 2
		}
		if res.Version != wantVer || res.Value != decideValue(int(wantVer), 6) {
			t.Fatalf("invocation %d: %+v", i, res)
		}
	}
	if canaries != 10 {
		t.Fatalf("%d of 40 invocations routed to the canary, want 10 (1 in 4)", canaries)
	}
	if inc, cand := s.Incumbent().Invocations(), s.Candidate().Invocations(); inc != 30 || cand != 10 {
		t.Fatalf("per-version invocations %d/%d, want 30/10", inc, cand)
	}
}

// TestDoRevalidatesAcrossSwap pins the optimistic-revalidation seam: a
// swap that commits while an invocation is in flight forces that
// invocation to discard its execution and re-run against the new
// incumbent — the result reflects the post-swap version, and the
// discarded execution is counted as a retry, not an invocation.
func TestDoRevalidatesAcrossSwap(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 0); err != nil {
		t.Fatal(err)
	}
	swapped := false
	s.SetGate(func(p lifecycle.Point) error {
		if p == lifecycle.PointInvoked && !swapped {
			swapped = true // before Promote: its own gate points re-enter here
			if err := s.Promote(); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	res, err := s.Invoke("decide", 9)
	if err != nil {
		t.Fatal(err)
	}
	s.SetGate(nil)
	if res.Version != 2 || res.Value != decideValue(2, 9) {
		t.Fatalf("raced invocation served by v%d = %d, want v2's result", res.Version, res.Value)
	}
	if res.Retries != 1 {
		t.Fatalf("retries = %d, want exactly 1", res.Retries)
	}
	a := s.Accounting()
	if a.Issued != 1 || a.Committed != 1 || a.Retried != 1 {
		t.Fatalf("accounting = %+v, want issued=1 committed=1 retried=1", a)
	}
	if got := s.Versions()[0].Invocations(); got != 0 {
		t.Fatalf("v1 recorded %d invocations; the discarded execution leaked", got)
	}
}

func TestCanaryReportVerdicts(t *testing.T) {
	s := decideSlot(t, tech.Bytecode)
	if _, err := s.Canary(lifecycle.CanaryPolicy{}); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Fatalf("canary on empty slot: %v", err)
	}
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Canary(lifecycle.CanaryPolicy{}); !errors.Is(err, lifecycle.ErrNoCandidate) {
		t.Fatalf("canary without candidate: %v", err)
	}
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}

	r, err := s.Canary(lifecycle.CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != lifecycle.VerdictContinue {
		t.Fatalf("verdict with no samples = %q (%s), want continue", r.Verdict, r.Reason)
	}

	// Healthy candidate: same program modulo the bias, so after enough
	// traffic it is promotable.
	for i := 0; i < 64; i++ {
		if _, err := s.Invoke("decide", 6); err != nil {
			t.Fatal(err)
		}
	}
	r, err = s.Canary(lifecycle.CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != lifecycle.VerdictPromote {
		t.Fatalf("healthy canary verdict = %q (%s), want promote", r.Verdict, r.Reason)
	}
	if r.Candidate.Invocations != 32 || r.Incumbent.Invocations != 32 {
		t.Fatalf("snapshot invocations %d/%d, want 32/32", r.Incumbent.Invocations, r.Candidate.Invocations)
	}

	// Trapping candidate: route the poison input only at the canary
	// cadence so the incumbent's record stays clean, then compare.
	s2 := decideSlot(t, tech.Bytecode)
	if err := s2.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s2.Invoke("decide", 13) // both columns trap; the verdict is what we assert
	}
	// Both versions trap identically, so the delta is zero → promote.
	r, err = s2.Canary(lifecycle.CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if r.TrapRateDelta != 0 {
		t.Fatalf("identical programs diverged: trap delta %f", r.TrapRateDelta)
	}

	// Now a candidate that traps when the incumbent does not.
	s3 := decideSlot(t, tech.Bytecode)
	if err := s3.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	poison := tech.Source{Name: "decide", GEL: `
func decide(x) { return ld32(1048576); }
`}
	if err := s3.Stage(tech.NewArtifact(poison, 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		s3.Invoke("decide", 6) // canary invocations trap; that is the point
	}
	r, err = s3.Canary(lifecycle.CanaryPolicy{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != lifecycle.VerdictRollback {
		t.Fatalf("trapping canary verdict = %q (%s), want rollback", r.Verdict, r.Reason)
	}
	if r.Candidate.Traps == 0 || r.TrapRateDelta <= 0 {
		t.Fatalf("report did not attribute traps to the candidate: %+v", r)
	}
}

func TestVersionedTelemetryRegistration(t *testing.T) {
	telemetry.ResetMetrics()
	telemetry.SetEnabled(true)
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	}()
	s := decideSlot(t, tech.Bytecode)
	if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
		t.Fatal(err)
	}
	invoke := func(x uint32) {
		t.Helper()
		if _, err := s.Invoke("decide", x); (err != nil) != (x == 13) {
			t.Fatalf("decide(%d): err = %v", x, err)
		}
	}
	for x := uint32(1); x <= 4; x++ {
		invoke(x)
	}
	invoke(13) // one OOB trap, committed against v1
	if err := s.Stage(tech.NewArtifact(decideSrc(2), 2), nil, 2); err != nil {
		t.Fatal(err)
	}
	for x := uint32(5); x <= 10; x++ {
		invoke(x) // every second call is served by the v2 canary
	}
	if err := s.Promote(); err != nil {
		t.Fatal(err)
	}
	invoke(13)
	invoke(7)

	// The versioned key is each version's own accumulator, so it holds
	// the version's ledger exactly: every committed invocation, its
	// fuel, and its trap, in both the lifetime view and the ring's
	// retained window.
	byName := map[string]*telemetry.GraftMetrics{}
	for _, m := range telemetry.Metrics() {
		if m.Tech == string(tech.Bytecode) {
			byName[m.GraftName] = m
		}
	}
	for _, v := range s.Versions() {
		name := lifecycle.VersionedName("decide", v.Artifact.Version)
		m := byName[name]
		if m == nil {
			t.Fatalf("no telemetry pair registered under %q", name)
		}
		want := v.Snapshot()
		got := m.Snapshot()
		win := m.Window(m.WindowSpan())
		var traps uint64
		for _, n := range got.Traps {
			traps += n
		}
		if want.Invocations == 0 || want.Traps != 1 {
			t.Fatalf("%s: scenario gave %d invocations, %d traps; want some and 1", name, want.Invocations, want.Traps)
		}
		if got.Invocations != want.Invocations || win.Invocations != want.Invocations {
			t.Errorf("%s: invocations key=%d window=%d, version=%d", name, got.Invocations, win.Invocations, want.Invocations)
		}
		if traps != want.Traps || win.Traps != want.Traps || got.Errors != want.Errors {
			t.Errorf("%s: traps key=%d window=%d errors=%d, version traps=%d errors=%d",
				name, traps, win.Traps, got.Errors, want.Traps, want.Errors)
		}
		if fpi := float64(got.FuelConsumed) / float64(got.Invocations); got.FuelConsumed <= 0 || fpi != want.FuelPerInvocation {
			t.Errorf("%s: fuel key=%d (%.3f/call), version %.3f/call", name, got.FuelConsumed, fpi, want.FuelPerInvocation)
		}
	}
}

// TestResultFuelSurvivesWrapping pins Result.Fuel across carriers: the
// telemetry wrap and a pooled instance must report the engine's own
// fuel, not hide it.
func TestResultFuelSurvivesWrapping(t *testing.T) {
	defer func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	}()
	opts := tech.Options{Fuel: 1 << 20}
	var want int64
	for _, c := range []struct {
		name      string
		telemetry bool
		load      lifecycle.LoadFunc
	}{
		{"Loader", false, lifecycle.Loader(tech.Bytecode, decideMemSize, opts)},
		{"Loader+telemetry", true, lifecycle.Loader(tech.Bytecode, decideMemSize, opts)},
		{"PoolLoader", false, lifecycle.PoolLoader(tech.Bytecode, opts, tech.PoolConfig{MemSize: decideMemSize})},
		{"PoolLoader+telemetry", true, lifecycle.PoolLoader(tech.Bytecode, opts, tech.PoolConfig{MemSize: decideMemSize})},
	} {
		telemetry.ResetMetrics()
		telemetry.SetEnabled(c.telemetry)
		s := lifecycle.NewSlot("decide", tech.Bytecode, c.load)
		if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
			t.Fatal(err)
		}
		res, err := s.Do("decide", nil, 3)
		if err != nil || res.Value != decideValue(1, 3) {
			t.Fatalf("%s: decide(3) = %d, %v", c.name, res.Value, err)
		}
		if want == 0 {
			want = res.Fuel
		}
		if res.Fuel == 0 || res.Fuel != want {
			t.Errorf("%s: Result.Fuel = %d, want %d (non-zero, as the bare engine reports)", c.name, res.Fuel, want)
		}
	}
}

func TestRegistrySlotsAndGet(t *testing.T) {
	r := lifecycle.NewRegistry()
	load := lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{})
	b := r.NewSlot("bbb", tech.Bytecode, load)
	a := r.NewSlot("aaa", tech.Bytecode, load)
	if got, ok := r.Get("bbb"); !ok || got != b {
		t.Fatal("Get(bbb) failed")
	}
	if _, ok := r.Get("zzz"); ok {
		t.Fatal("Get(zzz) found a ghost slot")
	}
	slots := r.Slots()
	if len(slots) != 2 || slots[0] != a || slots[1] != b {
		t.Fatalf("Slots() not sorted by name: %v", slots)
	}
}

// TestStateStringAndEmptySlotViews covers the human-facing renderings
// and the empty-slot branches of the views.
func TestStateStringAndEmptySlotViews(t *testing.T) {
	for st, want := range map[lifecycle.State]string{
		lifecycle.StateCandidate: "candidate",
		lifecycle.StateIncumbent: "incumbent",
		lifecycle.StateRetired:   "retired",
		lifecycle.StateDemoted:   "demoted",
	} {
		if got := st.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", st, got, want)
		}
	}
	s := decideSlot(t, tech.Bytecode)
	if s.Epoch() != 0 || s.Incumbent() != nil || s.Candidate() != nil {
		t.Fatalf("empty slot views: epoch %d, incumbent %v, candidate %v",
			s.Epoch(), s.Incumbent(), s.Candidate())
	}
}

// TestDeployFailuresLeaveNoTrace covers the deploy error paths: a load
// failure and a pre-publication gate error must leave the slot exactly
// as it was — no version list growth, no epoch movement.
func TestDeployFailuresLeaveNoTrace(t *testing.T) {
	boom := errors.New("boom")
	failing := lifecycle.NewSlot("decide", tech.Bytecode,
		func(a tech.Artifact) (lifecycle.Carrier, error) { return nil, boom })
	if err := failing.Activate(tech.NewArtifact(decideSrc(1), 1), nil); !errors.Is(err, boom) {
		t.Fatalf("activate with failing loader: %v", err)
	}
	if failing.Epoch() != 0 || len(failing.Versions()) != 0 {
		t.Fatalf("failed activate left state behind: epoch %d, %d versions",
			failing.Epoch(), len(failing.Versions()))
	}

	for _, kill := range []lifecycle.Point{lifecycle.PointDeployLoaded, lifecycle.PointDeployPrepped} {
		s := decideSlot(t, tech.Bytecode)
		s.SetGate(func(p lifecycle.Point) error {
			if p == kill {
				return boom
			}
			return nil
		})
		if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); !errors.Is(err, boom) {
			t.Fatalf("gate at %s: activate returned %v", kill, err)
		}
		if s.Epoch() != 0 || len(s.Versions()) != 0 {
			t.Fatalf("gate at %s left state behind", kill)
		}
		s.SetGate(nil)
		if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
			t.Fatalf("retry after gated deploy: %v", err)
		}
		res, err := s.Invoke("decide", 5)
		if err != nil || res.Value != decideValue(1, 5) {
			t.Fatalf("invoke after retried deploy: %+v, %v", res, err)
		}
	}
}

// TestLoaderErrors covers the load-failure branch of both stock
// loaders: an artifact whose source does not compile must surface the
// front-end error and leave the slot untouched.
func TestLoaderErrors(t *testing.T) {
	bad := tech.Source{Name: "broken", GEL: "func broken( {"}
	for name, load := range map[string]lifecycle.LoadFunc{
		"single": lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{}),
		"pooled": lifecycle.PoolLoader(tech.Bytecode, tech.Options{}, tech.PoolConfig{MemSize: decideMemSize}),
	} {
		s := lifecycle.NewSlot("broken", tech.Bytecode, load)
		if err := s.Activate(tech.NewArtifact(bad, 1), nil); err == nil {
			t.Errorf("%s loader: broken source activated", name)
		}
		if s.Epoch() != 0 || len(s.Versions()) != 0 {
			t.Errorf("%s loader: failed activate left state behind", name)
		}
	}

	s := decideSlot(t, tech.Bytecode)
	if err := s.Rollback(); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Errorf("Rollback on empty slot: %v, want ErrEmptySlot", err)
	}
	if err := s.Demote(); !errors.Is(err, lifecycle.ErrEmptySlot) {
		t.Errorf("Demote on empty slot: %v, want ErrEmptySlot", err)
	}
}
