package main

import (
	"fmt"

	"graftlab/internal/btree"
	"graftlab/internal/grafts"
	"graftlab/internal/kernel"
	"graftlab/internal/mem"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// evict-tpcb: the Prioritization graft in its model application. Each
// round scans a seeded range of evictSubtrees TPC-B subtrees
// evictPasses times through a pager of evictFrames frames whose eviction
// hook is the pageevict graft; one event is one Pager.Access.
const (
	evictFrames   = 200
	evictSubtrees = 2
	evictPasses   = 4
	// evictEventsPerSlice: a subtree scan references the root, one
	// level-two page, one level-three page and its 128 data pages.
	evictEventsPerSlice = evictPasses * evictSubtrees * (3 + 128)
	evictRate           = 3.0
)

type evictBench struct {
	tree   *btree.Tree
	starts []int
	// accesses is the current round's reference string, shared by every
	// lane; ref has replayed every round up to the current one.
	accesses []btree.Access
	ref      *refPager
}

func startEvict(seed uint64, rounds int) (bench, error) {
	tree, err := btree.Build(btree.TPCBConfig())
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(mix(seed, 1))
	b := &evictBench{tree: tree, starts: make([]int, rounds), ref: newRefPager(evictFrames)}
	for r := range b.starts {
		b.starts[r] = int(rng.Uint32n(uint32(len(tree.L3) - evictSubtrees + 1)))
	}
	return b, nil
}

func (b *evictBench) prepare(r int) error {
	b.accesses = b.accesses[:0]
	start := b.starts[r]
	for p := 0; p < evictPasses; p++ {
		err := b.tree.Scan(start, start+evictSubtrees, func(a btree.Access) error {
			b.accesses = append(b.accesses, a)
			return nil
		})
		if err != nil {
			return err
		}
	}
	for _, a := range b.accesses {
		b.ref.access(a)
	}
	return nil
}

type evictLane struct {
	b      *evictBench
	closer func()
	pager  *kernel.Pager
	hot    *grafts.HotList
	tr     *tracer
}

func (b *evictBench) newLane(c class, tr *tracer, m *mem.Memory) (lane, error) {
	g, closer, err := loadClass(c, grafts.PageEvict, m, tr)
	if err != nil {
		return nil, err
	}
	pager, err := kernel.NewPager(kernel.PagerConfig{Frames: evictFrames, Mem: m, NodeBase: grafts.PELRUNodeBase}, &vclock.Clock{})
	if err != nil {
		closer()
		return nil, err
	}
	hot := grafts.NewHotList(m)
	pager.SetPolicy(grafts.NewGraftEvictionPolicy(g))
	return &evictLane{b: b, closer: closer, pager: pager, hot: hot, tr: tr}, nil
}

func (l *evictLane) run(lat []int32) ([]int32, int, error) {
	before := l.pager.Stats()
	failed := 0
	for _, a := range l.b.accesses {
		if a.HotList != nil {
			l.hot.Set(a.HotList)
		}
		var err error
		if l.tr == nil {
			t0 := nanotime()
			_, err = l.pager.Access(a.Page)
			lat = append(lat, int32(nanotime()-t0))
		} else {
			t0 := nanotime()
			i := l.tr.begin(spanLayer)
			_, err = l.pager.Access(a.Page)
			l.tr.end(i)
			lat = append(lat, int32(nanotime()-t0))
			l.tr.fold()
		}
		if err != nil {
			failed++
		}
		l.hot.Remove(a.Page)
	}
	after := l.pager.Stats()
	// A trapping or preempted graft, or an invalid proposal, makes the
	// pager fall back to LRU; each is a failed event.
	failed += int(after.PolicyErrors - before.PolicyErrors + after.PolicyRejected - before.PolicyRejected)
	return lat, failed, nil
}

func (l *evictLane) check() error {
	return l.b.ref.compare(l.pager.Stats(), l.pager.LRUPages())
}

func (l *evictLane) calls() int64 { return int64(l.pager.Stats().PolicyCalls) }

func (l *evictLane) close() { l.closer() }

func (b *evictBench) finish(lanes []*laneState, m *metrics) error {
	if !traced(lanes) {
		return nil
	}
	var calls, overrides, errs uint64
	var self, n int64
	for _, ls := range lanes {
		st := ls.l.(*evictLane).pager.Stats()
		calls += st.PolicyCalls
		overrides += st.PolicyOverrides
		errs += st.PolicyErrors
		if ls.tr != nil {
			self += ls.tr.self[spanLayer]
			n += ls.tr.n[spanLayer]
		}
	}
	fuelPerCall(lanes, m)
	if err := addSetupPhases(m, grafts.PageEvict, grafts.PEMemSize); err != nil {
		return err
	}
	m.add("kernel.pager_self_ns", ratio(float64(self), float64(n)), "ns")
	m.add("kernel.policy_calls", float64(calls), "count")
	m.add("kernel.override_ratio", ratio(float64(overrides), float64(calls)), "ratio")
	m.add("kernel.policy_errors", float64(errs), "count")
	addUnusedLayers(m, "ld", "lifecycle", "telemetry")
	return nil
}

func (b *evictBench) close() {}

// refPager is the reference for evict-tpcb, written independently of
// package kernel: an LRU list of at most frames pages whose eviction
// takes the first page, from the LRU end, that is not on the hot list,
// or the LRU page when every resident page is hot.
type refPager struct {
	frames int
	lru    []kernel.PageID // least recently used first
	hot    []kernel.PageID
	stats  kernel.PagerStats
}

func newRefPager(frames int) *refPager { return &refPager{frames: frames} }

func (p *refPager) access(a btree.Access) {
	if a.HotList != nil {
		p.hot = append(p.hot[:0], a.HotList...)
	}
	if i := indexOf(p.lru, a.Page); i >= 0 {
		p.stats.Hits++
		p.lru = append(append(p.lru[:i], p.lru[i+1:]...), a.Page)
	} else {
		p.stats.Faults++
		if len(p.lru) == p.frames {
			p.stats.Evictions++
			p.stats.PolicyCalls++
			victim := 0
			for i, pg := range p.lru {
				if indexOf(p.hot, pg) < 0 {
					victim = i
					break
				}
			}
			if victim != 0 {
				p.stats.PolicyOverrides++
			}
			p.lru = append(p.lru[:victim], p.lru[victim+1:]...)
		}
		p.lru = append(p.lru, a.Page)
	}
	if i := indexOf(p.hot, a.Page); i >= 0 {
		p.hot = append(p.hot[:i], p.hot[i+1:]...)
	}
}

// compare checks a pager's counters and LRU order against the reference.
func (p *refPager) compare(st kernel.PagerStats, lru []kernel.PageID) error {
	if st != p.stats {
		return fmt.Errorf("pager stats %+v, reference %+v", st, p.stats)
	}
	if len(lru) != len(p.lru) {
		return fmt.Errorf("%d resident pages, reference %d", len(lru), len(p.lru))
	}
	for i := range lru {
		if lru[i] != p.lru[i] {
			return fmt.Errorf("LRU position %d holds page %d, reference %d", i, lru[i], p.lru[i])
		}
	}
	return nil
}

func indexOf(s []kernel.PageID, v kernel.PageID) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	return -1
}
