package tech

import (
	"fmt"
	"sync"
	"sync/atomic"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// Pool hands out reusable graft instances so one loaded extension can be
// invoked from many goroutines at once. Every engine in the registry
// keeps per-invocation state (VM frames, the closure backend's register
// arena, the script interpreter's variable stack), so a single Graft is
// safe for one goroutine at a time; the pool is the concurrency layer on
// top: each instance owns a private linear memory and a private engine,
// and the load-time artifacts that ARE immutable — the parsed GEL
// program, the verified bytecode module, the assembled HiPEC programs —
// are prepared once and shared by every instance. This mirrors how
// production extension runtimes go multicore: eBPF runs the same
// verified program on every CPU with per-CPU maps for the mutable
// state; here the per-CPU state is the instance.
//
// Get/Put are sync.Pool-backed, so idle instances are dropped under
// memory pressure and re-created on demand; Close tears down every
// instance ever created (required for the wrapped/domain-per-worker
// mode, whose instances own goroutines).
type Pool struct {
	id   ID
	name string
	cfg  PoolConfig

	// bind instantiates an engine over a fresh memory from the front
	// end prepare built once.
	bind func(m *mem.Memory) (Graft, error)

	instrument bool // captured at NewPool time, like Load
	metered    bool // the engine runs with a fuel budget

	free sync.Pool

	// closed is atomic so Get's fast path (a free-list hit) can refuse
	// checkouts after Close without taking mu.
	closed atomic.Bool

	mu      sync.Mutex
	all     []*Instance // every instance ever created, for Close
	created int
}

// PoolConfig sizes and initializes the per-instance state.
type PoolConfig struct {
	// MemSize is the byte size of each instance's linear memory
	// (power of two, >= 8).
	MemSize uint32
	// Setup, if non-nil, initializes a freshly allocated instance memory
	// (hot lists, constant tables, map regions) before the engine loads.
	// It runs once per instance, from whichever goroutine first needed
	// the instance; it must only touch the memory it is given.
	Setup func(m *mem.Memory) error
	// Wrap, if non-nil, wraps each instance's engine after loading —
	// the domain-per-worker mode: upcall.PoolWrapper gives every pooled
	// instance its own user-level server so concurrent workers never
	// serialize on one protection-domain channel. The returned closer
	// (may be nil) is called by Pool.Close.
	Wrap func(g Graft) (Graft, func())
}

// Instance is one pooled graft: a private engine over a private linear
// memory. It implements Graft; use it from one goroutine at a time and
// return it with Pool.Put when done. The embedded Graft is the engine
// as Load would return it, optional interfaces (DirectCaller,
// FuelReporter) included. A trap does not poison an instance:
// every engine resets its invocation state on entry, so a trapped
// instance is reusable as-is (the linear memory keeps whatever the
// faulting invocation wrote, exactly like a real extension's state).
type Instance struct {
	Graft
	close func()
}

// FuelUsed implements FuelReporter by forwarding to the engine (0 when
// the engine has no fuel meter), so a checked-out instance reports the
// same fuel as its engine.
func (it *Instance) FuelUsed() int64 {
	if fr, ok := it.Graft.(FuelReporter); ok {
		return fr.FuelUsed()
	}
	return 0
}

// NewPool prepares the source under the technology once, builds one
// instance eagerly (so a bad program fails at pool construction, not
// first Get) and returns the pool. Like Load, the telemetry decision is
// made once here: instances created while telemetry is enabled are
// instrumented, each with its own single-writer batch counter flushing
// into the shared per-(graft,technology) accumulator.
func NewPool(id ID, src Source, opts Options, cfg PoolConfig) (*Pool, error) {
	if cfg.MemSize == 0 {
		return nil, fmt.Errorf("tech: pool for %q needs a MemSize", src.Name)
	}
	bind, err := prepare(id, src, opts)
	if err != nil {
		return nil, err
	}
	p := &Pool{id: id, name: src.Name, cfg: cfg, bind: bind,
		instrument: !telemetry.Disabled(), metered: opts.Fuel > 0}
	first, err := p.newInstance()
	if err != nil {
		return nil, err
	}
	p.free.Put(first)
	return p, nil
}

// newInstance binds one fresh instance to a private memory.
func (p *Pool) newInstance() (*Instance, error) {
	m := mem.New(p.cfg.MemSize)
	if p.cfg.Setup != nil {
		if err := p.cfg.Setup(m); err != nil {
			return nil, fmt.Errorf("tech: pool setup for %q: %w", p.name, err)
		}
	}
	g, err := p.bind(m)
	if err != nil {
		return nil, err
	}
	attachProfile(g, p.name, p.id)
	it := &Instance{}
	if p.cfg.Wrap != nil {
		g, it.close = p.cfg.Wrap(g)
	}
	if p.instrument {
		g = instrument(g, p.name, p.id, p.metered)
	}
	it.Graft = g

	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		if it.close != nil {
			it.close()
		}
		return nil, fmt.Errorf("tech: pool for %q is closed", p.name)
	}
	p.all = append(p.all, it)
	p.created++
	p.mu.Unlock()
	return it, nil
}

// Get returns an idle instance, creating one if the pool is empty.
// After Close, Get fails even when the free list still holds instances.
func (p *Pool) Get() (*Instance, error) {
	if p.closed.Load() {
		return nil, fmt.Errorf("tech: pool for %q is closed", p.name)
	}
	if it, ok := p.free.Get().(*Instance); ok {
		return it, nil
	}
	return p.newInstance()
}

// Put returns an instance to the pool. Instances must not be used after
// Put. The instance's memory is NOT cleared: like a real extension's
// state, it carries over to the next invocation — callers that need a
// pristine memory per checkout reinitialize via their Setup conventions.
func (p *Pool) Put(it *Instance) {
	if it == nil {
		return
	}
	p.free.Put(it)
}

// Invoke checks out an instance, invokes entry on it, and returns it:
// the convenience path for callers without a per-worker checkout. When
// span tracing is enabled the checkout is recorded as a "pool" root
// span with the engine invocation nested inside it.
func (p *Pool) Invoke(entry string, args ...uint32) (uint32, error) {
	sp := telemetry.RootSpan("pool:"+p.name, "pool")
	it, err := p.Get()
	if err != nil {
		if sp.Active() {
			sp.End(0, 1)
		}
		return 0, err
	}
	var v uint32
	if sp.Active() {
		v, err = InvokeSpan(it.Graft, sp.Ctx(), entry, args...)
		var errBit uint64
		if err != nil {
			errBit = 1
		}
		sp.End(uint64(len(args)), errBit)
	} else {
		v, err = it.Graft.Invoke(entry, args...)
	}
	p.Put(it)
	return v, err
}

// Created reports how many instances the pool has ever built (a
// steady-state concurrent workload should see this plateau near its
// worker count).
func (p *Pool) Created() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.created
}

// Close tears down every instance the pool ever created — in the
// wrapped (domain-per-worker) mode each instance owns a server
// goroutine, and sync.Pool alone would leak any it drops. Get after
// Close fails; instances already checked out remain usable until Put,
// but their wrappers are closed, so domain-backed invocations will
// return errors.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed.Load() {
		p.mu.Unlock()
		return
	}
	p.closed.Store(true)
	all := p.all
	p.all = nil
	p.mu.Unlock()
	for _, it := range all {
		if it.close != nil {
			it.close()
		}
	}
}
