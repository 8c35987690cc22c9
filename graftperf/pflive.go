package main

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"graftlab/internal/grafts"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/netsim"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// pf-live: the production path for packet filtering. A seeded trace is
// delivered frame by frame through lifecycle.Slot.Do, the Do prep step
// writing the frame into engine memory, with telemetry on. Halfway
// through every slice the data plane hands the control-plane goroutine
// the next step of a Stage → Promote → Rollback cycle; after each step
// the control plane takes a window snapshot and runs one watchdog check.
// A staged candidate serves every pfCanaryEvery-th packet. One event is
// one packet.
const (
	pfEventsPerSlice = 32768
	pfCanaryEvery    = 8
	pfRate           = 3.5
	// pfWindow is the window the control plane snapshots.
	pfWindow = 10 * time.Second
)

// pfPorts are the ports versions listen on: version v filters for
// pfPorts[v%2], so successive deployments really change the answer and
// every verdict can be attributed to the version that served it.
var pfPorts = [2]uint16{5001, 6001}

type pfBench struct {
	trace []netsim.Packet
	// want[k][i] is the reference verdict of packet i for pfPorts[k].
	want [2][]bool
	wd   *telemetry.Watchdog

	ctl    chan *pfLane
	ack    chan struct{}
	exited chan struct{}
}

func startPF(seed uint64, rounds int) (bench, error) {
	b := &pfBench{
		ctl:    make(chan *pfLane),
		ack:    make(chan struct{}),
		exited: make(chan struct{}),
	}
	var parts [2][]netsim.Packet
	for k, port := range pfPorts {
		cfg := netsim.DefaultTrace(pfEventsPerSlice / 2)
		cfg.MatchPort = port
		cfg.Seed = mix(seed, uint64(3+k))
		p, err := netsim.GenerateTrace(cfg)
		if err != nil {
			return nil, err
		}
		parts[k] = p
	}
	for i := range parts[0] {
		b.trace = append(b.trace, parts[0][i], parts[1][i])
	}
	for k, port := range pfPorts {
		ref := grafts.ReferencePacketFilter(port)
		b.want[k] = make([]bool, len(b.trace))
		for i, p := range b.trace {
			b.want[k][i] = ref(p)
		}
	}
	telemetry.ResetMetrics()
	telemetry.SetEnabled(true)
	// The SLO has no latency term, so timing noise cannot trip it; any
	// preemption would.
	b.wd = telemetry.NewWatchdog(telemetry.SLO{MaxPreemptRate: 0.001, FastWindow: pfWindow, SlowWindow: 6 * pfWindow})
	go b.control()
	return b, nil
}

func (b *pfBench) prepare(r int) error { return nil }

// control is the control-plane goroutine: it runs one lifecycle step
// per request and acknowledges it.
func (b *pfBench) control() {
	defer close(b.exited)
	for l := range b.ctl {
		l.controlStep(b.wd)
		b.ack <- struct{}{}
	}
}

func (b *pfBench) close() {
	close(b.ctl)
	<-b.exited
	telemetry.SetEnabled(false)
}

type pfLane struct {
	b    *pfBench
	c    class
	tr   *tracer
	slot *lifecycle.Slot

	mu      sync.Mutex
	closers []func()

	// Data-plane state.
	cur      netsim.Packet
	args     [1]uint32
	prep     func(m *mem.Memory) error
	mismatch error

	// Control-plane state, read by the data plane only after the step's
	// acknowledgement.
	next                                uint64
	step                                int
	ctlErr                              error
	stageNs, promoteNs, snapNs, checkNs []float64
}

func configure(v uint64) func(m *mem.Memory) error {
	port := pfPorts[v%2]
	return func(m *mem.Memory) error {
		grafts.ConfigurePacketFilter(m, port)
		return nil
	}
}

// newLane ignores m: every deployment gets its own memory from load.
func (b *pfBench) newLane(c class, tr *tracer, _ *mem.Memory) (lane, error) {
	l := &pfLane{b: b, c: c, tr: tr, next: 2}
	l.prep = l.writeFrame
	name := "pf-" + c.name
	if tr != nil {
		name += "-traced"
	}
	l.slot = lifecycle.NewSlot(name, c.id, l.load)
	if err := l.slot.Activate(tech.NewArtifact(grafts.PacketFilter, 1), configure(1)); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// load is the slot's loader: a fresh engine memory per version, the
// class's graft (decorated in a traced lane) in a Single carrier.
func (l *pfLane) load(a tech.Artifact) (lifecycle.Carrier, error) {
	g, closer, err := loadClass(l.c, a.Source, mem.New(grafts.PFMemSize), l.tr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.closers = append(l.closers, closer)
	l.mu.Unlock()
	return lifecycle.Single(g), nil
}

// writeFrame is the Do prep step.
func (l *pfLane) writeFrame(m *mem.Memory) error {
	if l.tr != nil {
		i := l.tr.begin(spanPrep)
		m.WriteAt(grafts.PFBufAddr, l.cur)
		l.tr.end(i)
		return nil
	}
	m.WriteAt(grafts.PFBufAddr, l.cur)
	return nil
}

func (l *pfLane) run(lat []int32) ([]int32, int, error) {
	failed := 0
	trace := l.b.trace
	for i, pkt := range trace {
		if i == len(trace)/2 {
			l.b.ctl <- l
		}
		l.cur = pkt
		l.args[0] = uint32(len(pkt))
		var res lifecycle.Result
		var err error
		t0 := nanotime()
		if l.tr == nil {
			res, err = l.slot.Do("filter", l.prep, l.args[:]...)
			lat = append(lat, int32(nanotime()-t0))
		} else {
			s := l.tr.begin(spanLayer)
			res, err = l.slot.Do("filter", l.prep, l.args[:]...)
			l.tr.end(s)
			lat = append(lat, int32(nanotime()-t0))
			l.tr.fold()
		}
		if err != nil {
			failed++
			continue
		}
		if want := l.b.want[res.Version%2][i]; (res.Value != 0) != want && l.mismatch == nil {
			l.mismatch = fmt.Errorf("packet %d served by v%d: verdict %d, reference %t", i, res.Version, res.Value, want)
		}
	}
	<-l.b.ack
	return lat, failed, l.ctlErr
}

// controlStep runs the lane's next lifecycle step, then one window
// snapshot and one watchdog check.
func (l *pfLane) controlStep(wd *telemetry.Watchdog) {
	var err error
	switch l.step % 3 {
	case 0:
		a := tech.NewArtifact(grafts.PacketFilter, l.next)
		prep := configure(l.next)
		l.next++
		var d float64
		d, err = elapsed(func() error { return l.slot.Stage(a, prep, pfCanaryEvery) })
		l.stageNs = append(l.stageNs, d)
	case 1:
		var d float64
		d, err = elapsed(l.slot.Promote)
		l.promoteNs = append(l.promoteNs, d)
	case 2:
		err = l.slot.Rollback()
	}
	l.step++
	if err != nil {
		l.ctlErr = fmt.Errorf("lifecycle step %d: %w", l.step, err)
		return
	}
	d, _ := elapsed(func() error { telemetry.WindowAll(pfWindow); return nil })
	l.snapNs = append(l.snapNs, d)
	var flagged []telemetry.Violation
	d, _ = elapsed(func() error { flagged = wd.Check(); return nil })
	l.checkNs = append(l.checkNs, d)
	if len(flagged) > 0 {
		l.ctlErr = fmt.Errorf("watchdog flagged %v", flagged[0])
	}
}

// check reports the first verdict that disagreed with the reference
// filter for the serving version's port, and checks the slot's ledger.
func (l *pfLane) check() error {
	if l.mismatch != nil {
		return l.mismatch
	}
	return checkLedger(l.slot.Accounting())
}

func checkLedger(a lifecycle.Accounting) error {
	if a.Issued != a.Committed+a.Aborted {
		return fmt.Errorf("slot ledger: issued %d != committed %d + aborted %d", a.Issued, a.Committed, a.Aborted)
	}
	return nil
}

func (l *pfLane) calls() int64 {
	a := l.slot.Accounting()
	return int64(a.Committed + a.Retried)
}

func (l *pfLane) close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.closers {
		c()
	}
	l.closers = nil
}

// finish checks the telemetry counts against the slot ledgers and, in a
// traced run, adds the lifecycle and telemetry layer metrics.
func (b *pfBench) finish(lanes []*laneState, m *metrics) error {
	var acct lifecycle.Accounting
	var engines int
	for _, ls := range lanes {
		l := ls.l.(*pfLane)
		a := l.slot.Accounting()
		acct.Issued += a.Issued
		acct.Committed += a.Committed
		acct.Aborted += a.Aborted
		acct.Retried += a.Retried
		acct.Swaps += a.Swaps
		engines += len(l.slot.Versions())
	}
	// Versions count every commit exactly; the engines' instrumented
	// wrappers count every execution, committed or retried, but flush in
	// batches of the sampling interval, so they may trail by less than
	// one interval per engine.
	var engineInv, versionInv, interval uint64
	fuel := map[string][2]float64{}
	for _, gm := range telemetry.Metrics() {
		switch {
		case gm.GraftName == grafts.PacketFilter.Name:
			engineInv += gm.Invocations()
			interval = max(interval, gm.Mask()+1)
			f := fuel[gm.Tech]
			fuel[gm.Tech] = [2]float64{f[0] + float64(gm.FuelConsumed()), f[1] + float64(gm.Invocations())}
		case strings.HasPrefix(gm.GraftName, "pf-"):
			versionInv += gm.Invocations()
		}
	}
	if versionInv != acct.Committed {
		return fmt.Errorf("telemetry: versions recorded %d invocations, slots committed %d", versionInv, acct.Committed)
	}
	executions := acct.Committed + acct.Retried
	if engineInv > executions || executions-engineInv >= uint64(engines)*interval {
		return fmt.Errorf("telemetry: engines recorded %d invocations for %d executions on %d engines", engineInv, executions, engines)
	}
	if !traced(lanes) {
		return nil
	}
	var self, n int64
	var stage, promote, snap, check []float64
	for _, ls := range lanes {
		l := ls.l.(*pfLane)
		if ls.tr != nil {
			self += ls.tr.self[spanLayer]
			n += ls.tr.n[spanLayer]
		}
		stage = append(stage, l.stageNs...)
		promote = append(promote, l.promoteNs...)
		snap = append(snap, l.snapNs...)
		check = append(check, l.checkNs...)
	}
	// Fuel comes from the telemetry registry: the instrumented wrapper
	// the slot calls does not expose the engine's FuelUsed.
	for _, c := range classes {
		if c.metered {
			f := fuel[string(c.id)]
			m.add(c.name+".fuel_per_call", ratio(f[0], f[1]), "fuel")
		}
	}
	if err := addSetupPhases(m, grafts.PacketFilter, grafts.PFMemSize); err != nil {
		return err
	}
	m.add("lifecycle.slot_self_ns", ratio(float64(self), float64(n)), "ns")
	m.add("lifecycle.retry_ratio", ratio(float64(acct.Retried), float64(acct.Issued)), "ratio")
	m.add("lifecycle.abort_ratio", ratio(float64(acct.Aborted), float64(acct.Issued)), "ratio")
	m.add("lifecycle.swaps", float64(acct.Swaps), "count")
	m.add("lifecycle.stage_ms", mean(stage)/1e6, "ms")
	m.add("lifecycle.promote_us", mean(promote)/1e3, "us")
	m.add("telemetry.invocations", float64(engineInv), "count")
	m.add("telemetry.window_snapshot_us", mean(snap)/1e3, "us")
	m.add("telemetry.watchdog_check_us", mean(check)/1e3, "us")
	addUnusedLayers(m, "kernel", "ld")
	return nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}
