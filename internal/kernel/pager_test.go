package kernel

import (
	"errors"
	"testing"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

func newTestPager(t *testing.T, frames int) (*Pager, *vclock.Clock) {
	t.Helper()
	clock := &vclock.Clock{}
	p, err := NewPager(PagerConfig{Frames: frames, FaultTime: time.Millisecond}, clock)
	if err != nil {
		t.Fatal(err)
	}
	return p, clock
}

func TestPagerBasicFaultAndHit(t *testing.T) {
	p, clock := newTestPager(t, 2)
	hit, err := p.Access(1)
	if err != nil || hit {
		t.Fatalf("first access: hit=%v err=%v", hit, err)
	}
	hit, err = p.Access(1)
	if err != nil || !hit {
		t.Fatalf("second access: hit=%v err=%v", hit, err)
	}
	st := p.Stats()
	if st.Faults != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	if clock.Now() != time.Millisecond {
		t.Errorf("clock = %v, want 1ms (one fault)", clock.Now())
	}
}

func TestPagerLRUEviction(t *testing.T) {
	p, _ := newTestPager(t, 3)
	for pg := PageID(1); pg <= 3; pg++ {
		p.Access(pg)
	}
	p.Access(1) // 1 becomes MRU; order now 2,3,1
	p.Access(4) // evicts 2
	if p.Resident(2) {
		t.Fatalf("LRU head not evicted; %v", p.LRUPages())
	}
	want := []PageID{3, 1, 4}
	got := p.LRUPages()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("LRU = %v, want %v", got, want)
		}
	}
}

func TestPagerInvalidAccess(t *testing.T) {
	p, _ := newTestPager(t, 1)
	if _, err := p.Access(InvalidPage); err == nil {
		t.Fatal("InvalidPage accepted")
	}
}

func TestPagerConfigValidation(t *testing.T) {
	clock := &vclock.Clock{}
	if _, err := NewPager(PagerConfig{Frames: 0}, clock); err == nil {
		t.Error("zero frames accepted")
	}
	m := mem.New(1 << 12)
	if _, err := NewPager(PagerConfig{Frames: 4, Mem: m, NodeBase: 0}, clock); err == nil {
		t.Error("zero NodeBase accepted")
	}
	if _, err := NewPager(PagerConfig{Frames: 100000, Mem: m, NodeBase: 8}, clock); err == nil {
		t.Error("oversized mirror accepted")
	}
}

func TestPagerTouch(t *testing.T) {
	p, _ := newTestPager(t, 2)
	p.Access(1)
	p.Access(2)
	if !p.Touch(1) {
		t.Fatal("Touch of resident page failed")
	}
	if p.Touch(99) {
		t.Fatal("Touch of absent page succeeded")
	}
	p.Access(3) // should evict 2, since 1 was touched
	if p.Resident(2) || !p.Resident(1) {
		t.Fatalf("Touch did not reorder LRU: %v", p.LRUPages())
	}
}

// TestPagerMemoryMirror checks that the graft-memory LRU chain always
// matches the kernel's internal list.
func TestPagerMemoryMirror(t *testing.T) {
	m := mem.New(1 << 16)
	clock := &vclock.Clock{}
	const base = 0x1000
	p, err := NewPager(PagerConfig{Frames: 8, Mem: m, NodeBase: base}, clock)
	if err != nil {
		t.Fatal(err)
	}
	readMirror := func() []PageID {
		var out []PageID
		for a := p.HeadAddr(); a != 0; a = m.Ld32U(a + 4) {
			out = append(out, PageID(m.Ld32U(a)))
		}
		return out
	}
	rng := workload.NewRNG(3)
	for i := 0; i < 5000; i++ {
		p.Access(PageID(rng.Uint32n(20)))
		kern := p.LRUPages()
		mirror := readMirror()
		if len(kern) != len(mirror) {
			t.Fatalf("iter %d: mirror length %d vs kernel %d", i, len(mirror), len(kern))
		}
		for j := range kern {
			if kern[j] != mirror[j] {
				t.Fatalf("iter %d: mirror %v vs kernel %v", i, mirror, kern)
			}
		}
	}
}

// TestPagerLRUInvariant: the LRU chain is always a permutation of the
// resident set.
func TestPagerLRUInvariant(t *testing.T) {
	p, _ := newTestPager(t, 16)
	rng := workload.NewRNG(11)
	for i := 0; i < 20000; i++ {
		p.Access(PageID(rng.Uint32n(100)))
		lru := p.LRUPages()
		if len(lru) != p.ResidentCount() {
			t.Fatalf("iter %d: chain %d vs resident %d", i, len(lru), p.ResidentCount())
		}
		seen := make(map[PageID]bool, len(lru))
		for _, pg := range lru {
			if seen[pg] {
				t.Fatalf("iter %d: duplicate %d in LRU %v", i, pg, lru)
			}
			seen[pg] = true
			if !p.Resident(pg) {
				t.Fatalf("iter %d: chain contains non-resident %d", i, pg)
			}
		}
	}
}

func TestPolicyValidation(t *testing.T) {
	p, _ := newTestPager(t, 2)
	p.Access(1)
	p.Access(2)

	// Policy proposing a non-resident page is rejected; LRU prevails.
	p.SetPolicy(EvictionPolicyFunc(func(_ telemetry.SpanCtx, pg *Pager, cand PageID) (PageID, error) {
		return PageID(777), nil
	}))
	p.Access(3)
	if p.Resident(1) {
		t.Fatal("rejected proposal still overrode LRU")
	}
	if st := p.Stats(); st.PolicyRejected != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Policy error falls back to LRU.
	p.SetPolicy(EvictionPolicyFunc(func(_ telemetry.SpanCtx, pg *Pager, cand PageID) (PageID, error) {
		return InvalidPage, errors.New("graft trapped")
	}))
	p.Access(4)
	if st := p.Stats(); st.PolicyErrors != 1 {
		t.Errorf("stats = %+v", st)
	}

	// Declining policy accepts the candidate.
	p.SetPolicy(EvictionPolicyFunc(func(_ telemetry.SpanCtx, pg *Pager, cand PageID) (PageID, error) {
		return InvalidPage, nil
	}))
	p.Access(5)
	if st := p.Stats(); st.PolicyOverrides != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPolicyOverride(t *testing.T) {
	p, _ := newTestPager(t, 3)
	p.Access(1)
	p.Access(2)
	p.Access(3)
	// Always evict the MRU page instead of the candidate.
	p.SetPolicy(EvictionPolicyFunc(func(_ telemetry.SpanCtx, pg *Pager, cand PageID) (PageID, error) {
		lru := pg.LRUPages()
		return lru[len(lru)-1], nil
	}))
	p.Access(4)
	if p.Resident(3) || !p.Resident(1) {
		t.Fatalf("override not applied: %v", p.LRUPages())
	}
	if st := p.Stats(); st.PolicyOverrides != 1 {
		t.Errorf("stats = %+v", st)
	}
}
