package tech

import (
	"fmt"
	"time"

	"graftlab/internal/mem"
	"graftlab/internal/telemetry"
)

// FuelReporter is the optional engine interface telemetry uses for
// per-invocation fuel accounting: FuelUsed reports the fuel the most
// recent invocation consumed. The metered engines (both bytecode VMs,
// the runtime codegen, AOT, the script interpreter) implement it, and
// the telemetry wrap forwards it.
type FuelReporter interface {
	FuelUsed() int64
}

// instrumented wraps a Graft with telemetry: invocations are counted,
// a sampled subset is latency-timed into the histogram, traps are
// classified by kind, and fuel consumption is accumulated for engines
// loaded with a fuel budget. The wrapper preserves the DirectCaller fast
// path — hook points that resolve an entry once get an instrumented
// closure, so the hot loop and the slow path feed the same counters —
// and forwards the engine's FuelUsed, so a wrapped engine reports the
// same fuel as a bare one.
//
// Budget discipline (<=2%, measured in BenchmarkAblationTelemetry and
// recorded in docs/observability.md): a locked atomic add per invocation
// alone costs ~6ns — over 2% of a ~250ns compiled graft — so BOTH the
// invocation count and the fuel total are batched in plain local
// counters and flushed to the shared atomics at each sampling point
// (every 256th call by default) and on every error. Each wrapper (and
// each Direct closure it hands out) has its own batch with exactly one
// writer: a Graft is single-goroutine by contract, and concurrent
// callers go through tech.Pool, where every pooled instance gets its own
// wrapper flushing into the shared per-(graft,technology) accumulator.
// Under contention that leaves one uncontended-in-the-common-case atomic
// add per 256 calls — the reason instrumented multicore runs stay inside
// the same <=2% envelope as single-threaded ones. Snapshot readers see
// counts that lag each live call path by at most one sampling interval.
// The unsampled, error-free invocation pays a register increment, a mask
// test, and (metered engines only) one fuel read.
type instrumented struct {
	inner    Graft
	fr       FuelReporter // the engine's fuel meter, nil if it has none
	b        batch        // the Invoke/InvokeSpan path's batch
	spanName string       // "engine:<technology>", precomputed at wrap time
}

// batch is one call path's single-writer share of a (graft, technology)
// pair's telemetry: the one metering state machine behind Invoke,
// InvokeSpan and every resolved Direct closure.
type batch struct {
	met     *telemetry.GraftMetrics
	fuel    FuelReporter // nil unless the engine is metered
	mask    uint64       // sampling mask, captured at wrap time
	quarErr error
	n       uint64 // batched invocation count
	fuelAcc int64  // batched fuel
	denied  bool   // cached quarantine verdict, refreshed at sampling points
}

// Instrument wraps g so its invocations are recorded under the
// (graft, technology) pair. Load applies it automatically while
// telemetry is enabled; tests and tools can wrap explicitly (which
// enables fuel accounting whenever the engine supports it).
func Instrument(g Graft, graft string, id ID) Graft {
	return instrument(g, graft, id, true)
}

func instrument(g Graft, graft string, id ID, metered bool) Graft {
	met := telemetry.Register(graft, string(id))
	ig := &instrumented{inner: g, spanName: "engine:" + string(id)}
	ig.b = batch{met: met, mask: met.Mask(),
		quarErr: fmt.Errorf("tech %s: graft %q: %w", id, graft, telemetry.ErrQuarantined)}
	if fr, ok := g.(FuelReporter); ok {
		ig.fr = fr
		if metered {
			ig.b.fuel = fr
		}
	}
	return ig
}

// call runs fn(args) under the batch's bookkeeping.
func (b *batch) call(fn func(args []uint32) (uint32, error), args []uint32) (uint32, error) {
	if b.denied {
		// Denied is already the slow path: re-read the shared flag so a
		// lifted quarantine restores service immediately.
		if b.met.Quarantined() {
			return 0, b.quarErr
		}
		b.denied = false
	}
	b.n++
	sampled := b.n&b.mask == 0
	var t0 time.Time
	if sampled {
		// Sampling point: flush the batched count, refresh the cached
		// watchdog verdict, and time this call.
		b.denied = b.met.Quarantined()
		b.met.AddInvocations(b.mask + 1)
		t0 = time.Now()
	}
	v, err := fn(args)
	if sampled {
		b.met.RecordLatency(time.Since(t0))
	}
	if b.fuel != nil {
		b.fuelAcc += b.fuel.FuelUsed()
		// Errors are already the slow path: flush there too, so trap
		// forensics see exact fuel.
		if sampled || err != nil {
			b.met.AddFuel(b.fuelAcc)
			b.fuelAcc = 0
		}
	}
	if err != nil {
		b.met.RecordError(err)
	}
	return v, err
}

// InvokeSpan implements SpanInvoker: the invocation is recorded as an
// "engine" child span of ctx, and the context is handed further down
// so upcall crossings nest inside the engine span.
func (ig *instrumented) InvokeSpan(ctx telemetry.SpanCtx, entry string, args ...uint32) (uint32, error) {
	sp := telemetry.ChildSpan(ctx, ig.spanName, "engine")
	if !sp.Active() {
		return ig.Invoke(entry, args...)
	}
	v, err := ig.b.call(func(args []uint32) (uint32, error) {
		return InvokeSpan(ig.inner, sp.Ctx(), entry, args...)
	}, args)
	var fuelUsed uint64
	if ig.b.fuel != nil {
		fuelUsed = uint64(ig.b.fuel.FuelUsed())
	}
	var errBit uint64
	if err != nil {
		errBit = 1
	}
	sp.End(fuelUsed, errBit)
	return v, err
}

// Invoke implements Graft.
func (ig *instrumented) Invoke(entry string, args ...uint32) (uint32, error) {
	return ig.b.call(func(args []uint32) (uint32, error) {
		return ig.inner.Invoke(entry, args...)
	}, args)
}

// FuelUsed implements FuelReporter by forwarding to the wrapped engine
// (0 when the engine has no fuel meter).
func (ig *instrumented) FuelUsed() int64 {
	if ig.fr == nil {
		return 0
	}
	return ig.fr.FuelUsed()
}

// SetProfile implements ProfileSetter by forwarding to the wrapped
// engine, so a loaded graft's profiler scope can be attached or
// detached through the metrics wrapper.
func (ig *instrumented) SetProfile(s *telemetry.ProfScope, every int64) {
	if ps, ok := ig.inner.(ProfileSetter); ok {
		ps.SetProfile(s, every)
	}
}

// Memory implements Graft.
func (ig *instrumented) Memory() *mem.Memory { return ig.inner.Memory() }

// Direct implements DirectCaller: the resolved inner fast path (or the
// Invoke fallback when the engine has none) run through a batch of its
// own, flushing into the same metrics as Invoke.
func (ig *instrumented) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	fn := ResolveDirect(ig.inner, entry)
	b := &batch{met: ig.b.met, fuel: ig.b.fuel, mask: ig.b.mask, quarErr: ig.b.quarErr}
	return func(args []uint32) (uint32, error) { return b.call(fn, args) }, true
}
