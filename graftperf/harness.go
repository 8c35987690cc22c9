package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
	"graftlab/internal/workload"
)

// class is one technology class every workload runs.
type class struct {
	name    string
	id      tech.ID
	metered bool
	upcall  bool
}

// fuelBudget is far above any single call's need (a full 200-frame LRU
// walk against a 128-entry hot list stays below 10⁶), so a preemption
// means a broken engine and counts as a failure.
const fuelBudget = 1 << 30

// classes are the six classes of every workload. script (10³–10⁴× slower)
// and domain (no HiPEC form of ldmap) are left out; see DESIGN.md.
var classes = []class{
	{name: "compiled-unsafe", id: tech.CompiledUnsafe},
	{name: "native-safe", id: tech.NativeSafe, metered: true},
	{name: "sfi", id: tech.SFI, metered: true},
	{name: "bytecode", id: tech.Bytecode, metered: true},
	{name: "aot", id: tech.AOT, metered: true},
	{name: "upcall", id: tech.CompiledUnsafe, upcall: true},
}

// loadClass loads src for class c over m. The upcall class is the
// compiled-unsafe graft behind a user-level server. With a tracer, the
// graft the hook calls is decorated (and, for upcall, the engine inside
// the server as well).
func loadClass(c class, src tech.Source, m *mem.Memory, tr *tracer) (tech.Graft, func(), error) {
	opts := tech.Options{}
	if c.metered {
		opts.Fuel = fuelBudget
	}
	g, err := tech.Load(c.id, src, m, opts)
	if err != nil {
		return nil, nil, fmt.Errorf("load %s under %s: %w", src.Name, c.name, err)
	}
	closer := func() {}
	if c.upcall {
		if tr != nil {
			g = tr.wrap(g, spanInner)
		}
		d := upcall.NewDomain(g, 0)
		g, closer = d, d.Close
	}
	if tr != nil {
		g = tr.wrap(g, spanGraft)
	}
	return g, closer, nil
}

// bench is one workload's program state shared by its lanes.
type bench interface {
	// prepare generates round r's inputs and reference outputs. It is
	// never timed and never part of setup_s.
	prepare(r int) error
	// newLane makes the set-up calls for one class over graft memory m
	// (nil for a workload that allocates memory per deployment); timed
	// into setup_s.
	newLane(c class, tr *tracer, m *mem.Memory) (lane, error)
	// finish adds the workload's per-layer metrics and checks run-wide
	// invariants once every slice has run.
	finish(ls []*laneState, m *metrics) error
	close()
}

// lane is one class's program state inside a workload.
type lane interface {
	// run executes one slice of the current round, appending one latency
	// (ns) per event to lat. It reports events that failed.
	run(lat []int32) ([]int32, int, error)
	// check compares the lane's outputs with the reference for the
	// rounds run so far.
	check() error
	// calls reports graft calls made so far.
	calls() int64
	close()
}

type workloadDef struct {
	// rate is rounds per second of --seconds: runs are fixed-work, and
	// the amount of work is a function of --seconds alone.
	rate float64
	// eventsPerSlice sizes the latency buffer.
	eventsPerSlice int
	// memSize is the graft memory each lane gets, 0 if none up front.
	memSize uint32
	start   func(seed uint64, rounds int) (bench, error)
}

var workloads = map[string]workloadDef{
	"evict-tpcb": {rate: evictRate, eventsPerSlice: evictEventsPerSlice, memSize: grafts.PEMemSize, start: startEvict},
	"ld-write":   {rate: ldRate, eventsPerSlice: ldEventsPerSlice, memSize: grafts.LDMemSize, start: startLD},
	"pf-live":    {rate: pfRate, eventsPerSlice: pfEventsPerSlice, start: startPF},
}

// laneState is the harness's view of a lane.
type laneState struct {
	class  class
	traced bool
	tr     *tracer
	l      lane
	// p50s and p99s hold each measured round's quantiles.
	p50s, p99s []float64

	events, failed int
	graftCalls     int64
	mallocs, bytes uint64
	loadNs         []float64 // one per set-up repetition
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	// rounds overrides the --seconds-derived round count (tests).
	rounds int
}

type result struct {
	correct           bool
	attempted, failed int
	metrics           *metrics
	info              map[string]any
}

// setupReps is how often a run performs its whole set-up; setup_s is
// the median, and the lanes of the last repetition run the workload.
const setupReps = 11

// execute runs one workload: inputs from the seed, set-up (repeated),
// then a warmup round and the measured rounds. Each round runs one slice
// per lane in a seeded shuffled order, with a GC before every slice.
func execute(o options) (*result, error) {
	def, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	rounds := o.rounds
	if rounds <= 0 {
		rounds = max(1, int(math.Round(float64(o.seconds)*def.rate)))
		if o.trace {
			// A traced run has twice the lanes; keep its length.
			rounds = max(1, rounds/2)
		}
	}
	// Round 0 is a warmup: run and checked, latencies discarded.
	b, err := def.start(o.seed, rounds+1)
	if err != nil {
		return nil, err
	}
	defer b.close()

	var lanes []*laneState
	closeLanes := func() {
		for _, ls := range lanes {
			ls.l.close()
		}
	}
	defer closeLanes()
	modes := traceModes(o.trace)
	nLanes := len(modes) * len(classes)
	setupNs := make([]float64, 0, setupReps)
	loadNs := make([][]float64, nLanes)
	for rep := 0; rep < setupReps; rep++ {
		closeLanes()
		lanes = lanes[:0]
		// Graft memory is the set-up's input, not part of it: allocated
		// and made resident first, so page-fault timing does not depend
		// on whether the heap still holds the previous repetition's pages.
		memories := make([]*mem.Memory, nLanes)
		for i := range memories {
			memories[i] = residentMemory(def.memSize)
		}
		runtime.GC()
		t0 := nanotime()
		for _, traced := range modes {
			for _, c := range classes {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				i := len(lanes)
				l0 := nanotime()
				l, err := b.newLane(c, tr, memories[i])
				if err != nil {
					return nil, err
				}
				loadNs[i] = append(loadNs[i], float64(nanotime()-l0))
				lanes = append(lanes, &laneState{class: c, traced: traced, tr: tr, l: l})
			}
		}
		setupNs = append(setupNs, float64(nanotime()-t0))
	}
	for i, ls := range lanes {
		ls.loadNs = loadNs[i]
		if ls.tr != nil {
			ls.tr.discard()
		}
	}

	rng := workload.NewRNG(mix(o.seed, 0x5eed))
	order := make([]int, len(lanes))
	var ms0, ms1 runtime.MemStats
	lat := make([]int32, 0, def.eventsPerSlice)
	for r := 0; r <= rounds; r++ {
		if err := b.prepare(r); err != nil {
			return nil, err
		}
		shuffle(rng, order)
		for _, i := range order {
			ls := lanes[i]
			runtime.GC()
			runtime.ReadMemStats(&ms0)
			calls0 := ls.l.calls()
			var failed int
			var err error
			lat, failed, err = ls.l.run(lat[:0])
			runtime.ReadMemStats(&ms1)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", ls.class.name, r, err)
			}
			if err := ls.l.check(); err != nil {
				return &result{correct: false, info: map[string]any{"mismatch": fmt.Sprintf("%s round %d: %v", ls.class.name, r, err)}}, nil
			}
			if r > 0 {
				p50, p99 := percentiles(lat)
				ls.p50s, ls.p99s = append(ls.p50s, p50), append(ls.p99s, p99)
				ls.events += len(lat)
				ls.failed += failed
				ls.graftCalls += ls.l.calls() - calls0
				ls.mallocs += ms1.Mallocs - ms0.Mallocs
				ls.bytes += ms1.TotalAlloc - ms0.TotalAlloc
			}
		}
	}

	res := &result{correct: true, metrics: &metrics{}, info: map[string]any{}}
	for _, ls := range lanes {
		res.attempted += ls.events
		res.failed += ls.failed
	}
	if err := b.finish(lanes, res.metrics); err != nil {
		return &result{correct: false, info: map[string]any{"mismatch": err.Error()}}, nil
	}
	samples := map[string]int{}
	for _, ls := range lanes {
		if !ls.traced {
			samples[ls.class.name] = ls.events
		}
	}
	res.info = map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"rounds":     rounds,
		"traced":     o.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"numcpu":     runtime.NumCPU(),
		"go":         runtime.Version(),
		"samples":    samples,
	}
	if o.trace {
		perLayer(lanes, res.metrics)
	} else {
		endToEnd(lanes, setupNs, res)
	}
	return res, nil
}

// residentMemory allocates size bytes of graft memory and touches every
// page, or returns nil for size 0.
func residentMemory(size uint32) *mem.Memory {
	if size == 0 {
		return nil
	}
	m := mem.New(size)
	for i := 0; i < len(m.Data); i += 4096 {
		m.Data[i] = 0
	}
	return m
}

func traceModes(traced bool) []bool {
	if traced {
		return []bool{false, true}
	}
	return []bool{false}
}

// endToEnd adds every end-to-end metric.
func endToEnd(lanes []*laneState, setupNs []float64, res *result) {
	m := res.metrics
	for _, ls := range lanes {
		p50, p99 := roundPercentiles(ls)
		m.add(ls.class.name+".p50_ns", p50, "ns")
		m.add(ls.class.name+".p99_ns", p99, "ns")
	}
	m.add("setup_s", median(setupNs)/1e9, "s")
	m.add("success_ratio", 1-ratio(float64(res.failed), float64(res.attempted)), "ratio")
}

// perLayer adds the per-layer metrics every workload shares: engine
// spans, fuel, allocation, load time and tracing overhead per class.
func perLayer(lanes []*laneState, m *metrics) {
	byClass := func(name string, traced bool) *laneState {
		for _, ls := range lanes {
			if ls.class.name == name && ls.traced == traced {
				return ls
			}
		}
		return nil
	}
	var cuMallocs uint64
	var cuEvents int
	for _, c := range classes {
		plain, tr := byClass(c.name, false), byClass(c.name, true)
		m.add(c.name+".graft_ns", tr.tr.meanDur(spanGraft), "ns")
		m.add(c.name+".allocs_per_event", ratio(float64(plain.mallocs), float64(plain.events)), "count")
		m.add(c.name+".bytes_per_event", ratio(float64(plain.bytes), float64(plain.events)), "B")
		m.add(c.name+".load_ms", median(plain.loadNs)/1e6, "ms")
		p50u, _ := roundPercentiles(plain)
		p50t, _ := roundPercentiles(tr)
		m.add(c.name+".trace_overhead_ns", p50t-p50u, "ns")
		if c.name == "compiled-unsafe" {
			cuMallocs, cuEvents = plain.mallocs, plain.events
		}
		if c.upcall {
			// The crossing is the Domain.Invoke span minus the engine
			// span inside the server; its allocations are the upcall
			// lane's minus those of compiled-unsafe doing the same work.
			inner := tr.tr.dur[spanInner]
			m.add("upcall.crossing_ns", ratio(float64(tr.tr.dur[spanGraft]-inner), float64(tr.tr.n[spanInner])), "ns")
			extra := float64(plain.mallocs) - float64(cuMallocs)*ratio(float64(plain.events), float64(cuEvents))
			m.add("upcall.allocs_per_crossing", ratio(extra, float64(plain.graftCalls)), "count")
		}
	}
}

// fuelPerCall reports the traced lanes' mean fuel per graft call for
// the metered classes.
func fuelPerCall(lanes []*laneState, m *metrics) {
	for _, ls := range lanes {
		if ls.traced && ls.class.metered {
			m.add(ls.class.name+".fuel_per_call", ratio(float64(ls.tr.fuel), float64(ls.tr.fuelCalls)), "fuel")
		}
	}
}

// roundPercentiles returns the medians, over the measured rounds, of
// each round's p50 and p99.
func roundPercentiles(ls *laneState) (p50, p99 float64) {
	return median(ls.p50s), median(ls.p99s)
}

// percentiles sorts integer-ns samples in place and returns their p50
// and p99. Each sample is read as spread uniformly over its nanosecond,
// so a quantile interpolates inside a run of tied values instead of
// snapping to it.
func percentiles(xs []int32) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	slices.Sort(xs)
	return quantile(xs, 0.50), quantile(xs, 0.99)
}

func quantile(sorted []int32, q float64) float64 {
	n := len(sorted)
	target := q * float64(n)
	k := int(math.Ceil(target)) - 1
	k = min(max(k, 0), n-1)
	v := sorted[k]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	frac := (target - float64(lo)) / float64(hi-lo)
	frac = min(max(frac, 0), 1)
	return float64(v) - 0.5 + frac
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mix derives an independent 64-bit seed from seed and a tag
// (splitmix64 finalizer).
func mix(seed, tag uint64) uint64 {
	z := seed ^ (tag * 0x9e3779b97f4a7c15)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffle fills order with a seeded permutation of its indices.
func shuffle(rng *workload.RNG, order []int) {
	for i := range order {
		order[i] = i
	}
	for i := len(order) - 1; i > 0; i-- {
		j := int(rng.Uint32n(uint32(i + 1)))
		order[i], order[j] = order[j], order[i]
	}
}

// elapsed times fn in nanoseconds.
func elapsed(fn func() error) (float64, error) {
	t0 := nanotime()
	err := fn()
	return float64(nanotime() - t0), err
}

// metrics is an ordered name → (value, unit) list.
type metrics struct {
	names  []string
	values []float64
	units  []string
}

func (m *metrics) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m.names = append(m.names, name)
	m.values = append(m.values, v)
	m.units = append(m.units, unit)
}
