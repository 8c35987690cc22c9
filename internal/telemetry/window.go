package telemetry

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"graftlab/internal/mem"
)

// The window ring is the only place a GraftMetrics records. Each key
// carries a ring of time-bucketed slices; a bucket holds one fixed-width
// slice's invocations, errors, traps per kind (fuel preemptions are the
// TrapFuel count), fuel, and a mergeable log2 latency histogram. Every
// view is derived from the ring at read time:
//
//   - Window(d) merges the buckets whose slices fall in the last d — the
//     "what is this graft doing *now*" view a serving daemon and the
//     burn-rate watchdog need, since a graft that misbehaved an hour ago
//     must look different from one misbehaving this second.
//   - The lifetime views (Invocations, FuelConsumed, FuelPreemptions,
//     Latency, Snapshot, Lifetime) merge the retired aggregate with every
//     live bucket — the bpftool "what has this program done since boot"
//     view, with no second set of counters to keep in step.
//
// The ring rotates implicitly: a writer derives the bucket index from
// the clock (epoch = unixNanos / width, slot = epoch % len(ring)) and
// the first writer to enter a recycled slot moves its old counts into
// the retired aggregate behind a CAS on the slot's published epoch.
// There is no rotation goroutine and no lock anywhere on the path.
//
// Budget: the batched wrappers record only at their existing
// single-writer flush points (AddInvocations / RecordLatency / AddFuel
// fire every sampling interval, RecordError only on the already-slow
// error path), so their cost is one clock read plus a handful of
// uncontended atomic adds per flush — amortized to well under a
// nanosecond per invocation at the default 1-in-256 interval. The
// lifecycle slot records every committed invocation through Commit,
// which reuses the caller's end-of-invocation Now reading: one bucket
// lookup, one histogram record and no extra clock read per call.
// BenchmarkObservabilityHotPath/window-* prices the pieces and the A6
// ablation row re-measures the end-to-end budget with windows enabled.

// WindowConfig shapes the per-key bucket ring: Width is one bucket's
// time slice, Buckets the ring length, so the ring retains
// Width×Buckets of history. The retained span bounds Snapshot windows —
// asking for more history than the ring holds clamps to the ring.
type WindowConfig struct {
	Width   time.Duration
	Buckets int
}

// DefaultWindowConfig retains 64 five-second buckets (320s): enough to
// serve both burn-rate windows the watchdog defaults to (10s fast, 5m
// slow) at ~40KB per registered key.
var DefaultWindowConfig = WindowConfig{Width: 5 * time.Second, Buckets: 64}

// windowWidth/windowBuckets are the current registration-time config,
// captured by each Windows at Register like the sampling mask.
var (
	windowWidth   atomic.Int64
	windowBuckets atomic.Int64
)

func init() {
	windowWidth.Store(int64(DefaultWindowConfig.Width))
	windowBuckets.Store(int64(DefaultWindowConfig.Buckets))
}

// SetWindowConfig sets the bucket geometry for keys registered after
// the call (the ring is allocated at Register time). Tests use small
// widths so rotations happen in milliseconds; production keeps the
// default. Width must be positive and Buckets >= 2 (a single bucket
// cannot hold one complete slice plus the current partial one).
func SetWindowConfig(cfg WindowConfig) error {
	if cfg.Width <= 0 || cfg.Buckets < 2 {
		return fmt.Errorf("telemetry: window config needs width > 0 and buckets >= 2, got %v x %d",
			cfg.Width, cfg.Buckets)
	}
	windowWidth.Store(int64(cfg.Width))
	windowBuckets.Store(int64(cfg.Buckets))
	return nil
}

// epochResetting marks a slot mid-rotation; stored epochs are e+1 so
// the zero value means "never used" and real epochs are always positive.
const epochResetting = -1

// counts is one time slice's activity, or (as the retired aggregate)
// every slice the ring has recycled. All fields are atomic: flush points
// may run concurrently from pool workers, and readers never lock
// writers out.
type counts struct {
	invocations atomic.Uint64
	errs        atomic.Uint64 // non-trap invocation errors
	traps       [numTrapKinds]atomic.Uint64
	fuel        atomic.Int64
	lat         Histogram
}

// recordError classifies a failed invocation: a trap counts under its
// kind (fuel exhaustion is the preemption count), anything else is an
// invocation error.
func (c *counts) recordError(err error) {
	var t *mem.Trap
	if errors.As(err, &t) && int(t.Kind) < numTrapKinds {
		c.traps[t.Kind].Add(1)
		return
	}
	c.errs.Add(1)
}

// drainInto moves c's counts into dst, leaving c empty. Swap(0) rather
// than Store(0): an add from a writer that still holds c after its slot
// was recycled lands either before its counter's swap (and moves) or
// after it (and stays in c, one slice late), so it is never lost.
func (c *counts) drainInto(dst *counts) {
	dst.invocations.Add(c.invocations.Swap(0))
	dst.errs.Add(c.errs.Swap(0))
	for k := range c.traps {
		dst.traps[k].Add(c.traps[k].Swap(0))
	}
	dst.fuel.Add(c.fuel.Swap(0))
	c.lat.drainInto(&dst.lat)
}

// tally is counts summed over buckets into plain integers: the form
// every read view is built from.
type tally struct {
	invocations, errs uint64
	traps             [numTrapKinds]uint64
	fuel              int64
	lat               Histogram
}

// add sums c into t.
func (t *tally) add(c *counts) {
	t.invocations += c.invocations.Load()
	t.errs += c.errs.Load()
	for k := range t.traps {
		t.traps[k] += c.traps[k].Load()
	}
	t.fuel += c.fuel.Load()
	t.lat.Merge(&c.lat)
}

// windowBucket is one slot of the ring: a slice's counts and the epoch
// they belong to.
type windowBucket struct {
	epoch atomic.Int64 // bucket epoch + 1; 0 empty, -1 rotating
	counts
}

// Windows is one key's bucket ring. The clock is a field so rotation
// edge cases (stalls, spans crossing a rotation) are testable without
// sleeping.
type Windows struct {
	width int64 // bucket width, ns
	ring  []windowBucket
	// retired holds every count a rotation moved out of a recycled
	// slot, so the ring forgets old slices without the lifetime views
	// losing them.
	retired counts
	now     func() int64 // unix ns; swapped by tests
}

// windowClockBase anchors the window clock; windowClockUnix is its
// unix-ns reading.
var (
	windowClockBase = time.Now()
	windowClockUnix = windowClockBase.UnixNano()
)

// Now reads the window clock: unix ns advanced by the monotonic clock
// alone, since time.Since reads one clock where time.Now reads two. A
// caller that times an invocation with two Now readings can hand the
// second to Commit, so the window costs it no further clock read.
func Now() int64 { return windowClockUnix + int64(time.Since(windowClockBase)) }

func newWindows() *Windows {
	return &Windows{
		width: windowWidth.Load(),
		ring:  make([]windowBucket, windowBuckets.Load()),
		now:   Now,
	}
}

// Span reports how much history the ring retains.
func (w *Windows) Span() time.Duration {
	return time.Duration(w.width * int64(len(w.ring)))
}

// bucket returns the live bucket for the current clock reading.
func (w *Windows) bucket() *windowBucket { return w.bucketAt(w.now()) }

// bucketAt returns the live bucket for clock reading at (unix ns),
// rotating a recycled slot on first entry: its old counts move into the
// retired aggregate. Lock-free: the only loop is the rotation CAS,
// taken once per key per bucket width.
// A writer that observes a *newer* epoch than its own clock reading
// (its read raced a rotation) records into the newer bucket rather
// than resurrecting the old one — at worst one flush lands one slice
// late, never in the future.
func (w *Windows) bucketAt(at int64) *windowBucket {
	e := at / w.width
	b := &w.ring[int(e%int64(len(w.ring)))]
	for {
		cur := b.epoch.Load()
		switch {
		case cur == e+1 || cur > e+1:
			// Current (or a racing writer already rotated past us).
			return b
		case cur == epochResetting:
			// Another writer is rotating; spin until it publishes.
			continue
		default: // stale or empty: rotate.
			if b.epoch.CompareAndSwap(cur, epochResetting) {
				b.drainInto(&w.retired)
				b.epoch.Store(e + 1)
				return b
			}
		}
	}
}

// walk calls fn on every ring bucket whose slice lies in epochs
// [lo, hi]: the one merge walk behind every view. A bucket mid-rotation
// (or recycled past the range) is skipped.
func (w *Windows) walk(lo, hi int64, fn func(*counts)) {
	for i := range w.ring {
		b := &w.ring[i]
		if e := b.epoch.Load() - 1; lo <= e && e <= hi {
			fn(&b.counts)
		}
	}
}

// lifetime calls fn on the retired aggregate and on every live bucket.
// A count sits in exactly one of them, so a quiescent ring reads every
// count ever recorded exactly once, across any number of rotations;
// concurrent with a rotation the sum is consistent-enough, like Merge.
func (w *Windows) lifetime(fn func(*counts)) {
	fn(&w.retired)
	w.walk(0, math.MaxInt64, fn)
}

// WindowSnapshot aggregates one key's activity over the last Window of
// time: absolute counts plus the derived rates the SLO plane and the
// export surface consume. Durations are integer nanoseconds in JSON,
// like every duration the repo exports.
type WindowSnapshot struct {
	Graft  string        `json:"graft"`
	Tech   string        `json:"tech"`
	Window time.Duration `json:"window"`
	// Covered is the span the snapshot actually aggregates: less than
	// Window when the ring retains less history or the process is young.
	Covered time.Duration `json:"covered"`

	Invocations    uint64 `json:"invocations"`
	Errors         uint64 `json:"errors,omitempty"`
	Traps          uint64 `json:"traps,omitempty"`
	Preempts       uint64 `json:"preempts,omitempty"`
	Fuel           int64  `json:"fuel,omitempty"`
	LatencySamples uint64 `json:"latency_samples,omitempty"`

	Rate        float64 `json:"rate"`                   // invocations / second
	TrapRatio   float64 `json:"trap_ratio,omitempty"`   // (traps+errors) / invocations
	PreemptRate float64 `json:"preempt_rate,omitempty"` // fuel preemptions / invocations
	FuelPerSec  float64 `json:"fuel_per_sec,omitempty"`

	Mean time.Duration `json:"latency_mean,omitempty"`
	Std  time.Duration `json:"latency_std,omitempty"`
	P50  time.Duration `json:"latency_p50,omitempty"`
	P95  time.Duration `json:"latency_p95,omitempty"`
	P99  time.Duration `json:"latency_p99,omitempty"`
	Max  time.Duration `json:"latency_max,omitempty"`

	Quarantined bool   `json:"quarantined,omitempty"`
	Note        string `json:"note,omitempty"`
}

// summarize fills s's counts, ratios and latency statistics from t.
func summarize(s *WindowSnapshot, t *tally) {
	s.Invocations = t.invocations
	s.Errors = t.errs
	for _, n := range t.traps {
		s.Traps += n
	}
	s.Preempts = t.traps[mem.TrapFuel]
	s.Fuel = t.fuel
	if s.Invocations > 0 {
		s.TrapRatio = float64(s.Traps+s.Errors) / float64(s.Invocations)
		s.PreemptRate = float64(s.Preempts) / float64(s.Invocations)
	}
	s.LatencySamples = t.lat.Count()
	if s.LatencySamples > 0 {
		s.Mean = t.lat.Mean()
		s.Std = t.lat.Std()
		s.P50 = t.lat.Quantile(0.50)
		s.P95 = t.lat.Quantile(0.95)
		s.P99 = t.lat.Quantile(0.99)
		s.Max = t.lat.Max()
	}
}

// snapshot merges the buckets covering the last d of time. The current
// partial bucket is included (freshness beats completeness for a live
// view); buckets whose epoch fell out of the requested range — or were
// recycled — are skipped, which is how empty slices and ring wrap
// resolve without any bookkeeping. A stalled clock shrinks Covered
// rather than producing negative or infinite rates.
func (w *Windows) snapshot(d time.Duration) WindowSnapshot {
	s := WindowSnapshot{Window: d}
	if d <= 0 {
		return s
	}
	now := w.now()
	cur := now / w.width
	n := int64((int64(d) + w.width - 1) / w.width) // slices to cover d, rounded up
	if n > int64(len(w.ring)) {
		n = int64(len(w.ring))
	}
	if n < 1 {
		n = 1
	}
	var t tally
	w.walk(cur-n+1, cur, t.add)
	summarize(&s, &t)
	// Covered time: n-1 complete slices plus the elapsed part of the
	// current one. now%width == 0 right at a boundary; the max(…, 1ns)
	// floor keeps a single-bucket snapshot from dividing by zero.
	covered := (n-1)*w.width + now%w.width
	if covered < 1 {
		covered = 1
	}
	s.Covered = time.Duration(covered)
	secs := float64(covered) / float64(time.Second)
	s.Rate = float64(s.Invocations) / secs
	s.FuelPerSec = float64(s.Fuel) / secs
	return s
}

// Window aggregates the key's activity over the last d of time
// (clamped to the ring's retained span). Concurrent with traffic the
// numbers are consistent-enough counters, not a linearizable cut —
// the same contract as Snapshot.
func (m *GraftMetrics) Window(d time.Duration) WindowSnapshot {
	s := m.win.snapshot(d)
	m.label(&s)
	return s
}

// Lifetime aggregates everything the key has recorded, in the window
// snapshot's shape: the retired aggregate plus every live bucket. It
// covers no fixed span, so Window, Covered and the per-second rates
// stay zero.
func (m *GraftMetrics) Lifetime() WindowSnapshot {
	var t tally
	m.win.lifetime(t.add)
	var s WindowSnapshot
	summarize(&s, &t)
	m.label(&s)
	return s
}

// label stamps the key's identity and state on s.
func (m *GraftMetrics) label(s *WindowSnapshot) {
	s.Graft = m.GraftName
	s.Tech = m.Tech
	s.Quarantined = m.quarantined.Load()
	s.Note = m.Note()
}

// WindowSpan reports how much history this key's ring retains.
func (m *GraftMetrics) WindowSpan() time.Duration { return m.win.Span() }

// WindowAll snapshots the last d of time for every registered key with
// any lifetime activity, sorted like Metrics. Keys idle across the
// whole window still appear (with zero rates) so a live view can show
// a quarantined or drained graft going quiet rather than vanishing.
func WindowAll(d time.Duration) []WindowSnapshot {
	ms := Metrics()
	out := make([]WindowSnapshot, 0, len(ms))
	for _, m := range ms {
		if m.Invocations() == 0 {
			continue
		}
		out = append(out, m.Window(d))
	}
	return out
}
