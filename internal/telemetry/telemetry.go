// Package telemetry is the observability layer threaded through the
// technology classes and kernel hook points: per-graft invocation
// counters and log-bucketed latency histograms kept in one ring of time
// buckets per graft (window.go), and one bounded trace store for kernel
// events and causal spans. It is the repo's equivalent
// of what production extension runtimes treat as a first-class
// subsystem — eBPF exposes per-program run counts and cumulative
// runtime via `bpftool prog`, and Rex keeps per-extension resource
// accounting — scaled to this simulation.
//
// The design constraint is that telemetry stays enabled during
// paper-scale measurement runs, so every hot-path operation is either a
// single uncontended atomic add or nothing at all:
//
//   - Metrics sit behind one flag: when Disabled() reports true (the
//     default), tech.Load returns raw grafts. The trace store has its
//     own switch (EnableSpans); while it is off the kernel hook points
//     skip their Emit calls after one atomic load.
//   - Per-invocation latency is sampled (every SampleInterval-th
//     invocation is timed), so the two clock reads amortize to well
//     under a nanosecond per call. The lifecycle slot, which times
//     every call for its own ledger, records through Commit on its own
//     clock reading instead: no extra clock read, one bucket lookup.
//   - Each count is recorded once, into the current window bucket;
//     lifetime totals are derived from the ring when read, never kept
//     as a second set of counters.
//   - Trap classification and fuel accounting run only on paths that
//     are already slow (an error return, a metered engine).
//
// The measured budget is <= 2% on the hottest per-invocation benchmark
// (Table 2 compiled eviction); see docs/observability.md for the
// recorded numbers and the ablation rows that keep them honest.
package telemetry

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"graftlab/internal/mem"
)

// enabled gates the metrics subsystem; off by default so library users
// and the test suite pay nothing unless they opt in.
var enabled atomic.Bool

// SetEnabled turns per-graft invocation metrics on or off. Grafts loaded
// while metrics are off are not instrumented (the fast path is decided
// at load time), so flip this before tech.Load.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether invocation metrics are being recorded.
func Enabled() bool { return enabled.Load() }

// Disabled is the fast-path guard instrumentation sites check: one
// atomic load, true by default.
func Disabled() bool { return !enabled.Load() }

// numTrapKinds sizes the per-kind trap counters; mem.TrapKind values are
// small consecutive integers.
const numTrapKinds = int(mem.TrapUnreachable) + 1

// defaultSampleInterval times every 256th invocation. Two clock reads
// cost ~100ns on a virtualized host; amortized over 256 invocations
// that is well under a nanosecond, invisible even against a ~200ns
// compiled eviction, while a paper-scale run (tens of thousands of
// invocations per graft) still collects ~100+ histogram samples.
const defaultSampleInterval = 256

// sampleMask is the current latency sampling mask (interval-1, interval
// a power of two). Captured by each GraftMetrics at Register time.
var sampleMask atomic.Uint64

func init() { sampleMask.Store(defaultSampleInterval - 1) }

// SetSampleInterval sets how often an invocation's latency is timed: 1
// times every call, n times every n-th (rounded down to a power of two).
// It affects grafts registered after the call; zero and negative
// intervals are rejected with an error and leave the current interval
// unchanged.
//
// The interval trades accuracy for overhead. Timing costs two clock
// reads (~100ns virtualized), so interval 1 is exact but can dominate a
// ~200ns compiled invocation, while the default 256 amortizes the clock
// cost below a nanosecond at the price of resolution: a latency spike
// confined to fewer than ~interval consecutive invocations may fall
// between samples entirely, and quantiles need on the order of 100
// samples (interval × 100 invocations) before they stabilize. Batched
// counters also flush at sampling points, so live snapshots lag a hot
// loop by up to one interval.
func SetSampleInterval(n int) error {
	if n < 1 {
		return fmt.Errorf("telemetry: sample interval must be >= 1, got %d", n)
	}
	// Round down to a power of two so sampling is a mask, not a divide.
	p := 1
	for p*2 <= n {
		p *= 2
	}
	sampleMask.Store(uint64(p - 1))
	return nil
}

// GraftMetrics accumulates one (graft, technology) pair's runtime
// behaviour. All counters are atomic: instrumented grafts may be invoked
// from any goroutine, and snapshot readers never lock writers out.
type GraftMetrics struct {
	// GraftName and Tech identify the pair; fixed at construction.
	GraftName string
	Tech      string

	mask uint64 // latency sampling mask (interval-1)

	// win holds every count the pair records (window.go): each flush
	// lands in the current time bucket, windowed views merge recent
	// buckets, and lifetime views add the ring's retired aggregate.
	win *Windows

	// note is a free-form state label the lifecycle layer stamps on
	// versioned keys ("canary", "incumbent", "demoted", …) so the export
	// surface and graftmon can flag deployment state without reaching
	// into the lifecycle package.
	note atomic.Pointer[string]

	// quarantined is set by the watchdog when the pair breaches its SLO
	// with quarantine enabled; tech.Load refuses quarantined pairs and
	// live instrumented wrappers deny further invocations at their next
	// sampling point.
	quarantined atomic.Bool
}

// Mask returns the sampling mask (interval-1) captured at Register time.
// Single-writer callers batch their invocation counting against it and
// flush with AddInvocations — a locked add per invocation alone costs
// ~6ns, which would blow the <=2% budget on ~250ns compiled grafts.
func (m *GraftMetrics) Mask() uint64 { return m.mask }

// AddInvocations flushes a batch of invocations counted locally by a
// single-writer instrumentation path into the current window bucket.
// Every view therefore lags a live call path by up to the sampling
// interval; the count is exact once the path reaches its next sampling
// point.
func (m *GraftMetrics) AddInvocations(n uint64) { m.win.bucket().invocations.Add(n) }

// RecordLatency feeds one timed invocation into the current bucket's
// histogram.
func (m *GraftMetrics) RecordLatency(d time.Duration) { m.win.bucket().lat.Record(d) }

// AddFuel accumulates fuel consumed by one invocation.
func (m *GraftMetrics) AddFuel(n int64) {
	if n > 0 {
		m.win.bucket().fuel.Add(n)
	}
}

// RecordError classifies a failed invocation: traps count per kind
// (fuel exhaustion is the preemption count), everything else is an
// invocation error.
func (m *GraftMetrics) RecordError(err error) { m.win.bucket().recordError(err) }

// Commit records one invocation that every-call callers (the lifecycle
// slot) timed themselves and that ended at window-clock reading at (see
// Now): the count, its latency, its fuel and, for a non-nil err, its
// trap or error class, in at's window bucket. One bucket lookup and no
// clock read, where the four batched flush methods above would read the
// clock once each.
func (m *GraftMetrics) Commit(at int64, lat time.Duration, fuel int64, err error) {
	b := m.win.bucketAt(at)
	b.invocations.Add(1)
	b.lat.Record(lat)
	if fuel > 0 {
		b.fuel.Add(fuel)
	}
	if err != nil {
		b.recordError(err)
	}
}

// SetNote stamps a free-form state label on the key ("canary",
// "incumbent", …); empty clears it. See GraftMetrics.note.
func (m *GraftMetrics) SetNote(s string) {
	if s == "" {
		m.note.Store(nil)
		return
	}
	m.note.Store(&s)
}

// Note reports the current state label, empty when unset.
func (m *GraftMetrics) Note() string {
	if p := m.note.Load(); p != nil {
		return *p
	}
	return ""
}

// Invocations reports the total invocation count.
func (m *GraftMetrics) Invocations() uint64 {
	var n uint64
	m.win.lifetime(func(c *counts) { n += c.invocations.Load() })
	return n
}

// FuelPreemptions reports how many invocations were preempted by fuel
// exhaustion (the §4 "extension that runs too long" case).
func (m *GraftMetrics) FuelPreemptions() uint64 {
	var n uint64
	m.win.lifetime(func(c *counts) { n += c.traps[mem.TrapFuel].Load() })
	return n
}

// FuelConsumed reports cumulative fuel charged across all invocations.
func (m *GraftMetrics) FuelConsumed() int64 {
	var n int64
	m.win.lifetime(func(c *counts) { n += c.fuel.Load() })
	return n
}

// Latency returns the lifetime sampled-latency histogram, merged from
// the ring into a fresh Histogram.
func (m *GraftMetrics) Latency() *Histogram {
	h := new(Histogram)
	m.win.lifetime(func(c *counts) { h.Merge(&c.lat) })
	return h
}

// Quarantine marks the pair as denied at dispatch (see Watchdog).
func (m *GraftMetrics) Quarantine() { m.quarantined.Store(true) }

// Unquarantine lifts a quarantine.
func (m *GraftMetrics) Unquarantine() { m.quarantined.Store(false) }

// Quarantined reports whether the pair is currently denied.
func (m *GraftMetrics) Quarantined() bool { return m.quarantined.Load() }

// ErrQuarantined is wrapped by dispatch-time denials of quarantined
// grafts.
var ErrQuarantined = errors.New("telemetry: graft quarantined by watchdog")

// Quarantined reports whether the (graft, technology) pair is on the
// watchdog's deny-list. Pairs never registered are not quarantined.
func Quarantined(graft, tech string) bool {
	key := graft + "\x00" + tech
	registry.mu.Lock()
	m := registry.byKey[key]
	registry.mu.Unlock()
	return m != nil && m.Quarantined()
}

// ClearQuarantines lifts every quarantine without touching counters.
func ClearQuarantines() {
	registry.mu.Lock()
	for _, m := range registry.byKey {
		m.quarantined.Store(false)
	}
	registry.mu.Unlock()
}

// GraftSnapshot is the JSON-friendly view of one GraftMetrics; durations
// are integer nanoseconds like every other duration the repo exports.
type GraftSnapshot struct {
	Graft           string            `json:"graft"`
	Tech            string            `json:"tech"`
	Invocations     uint64            `json:"invocations"`
	Errors          uint64            `json:"errors,omitempty"`
	Traps           map[string]uint64 `json:"traps,omitempty"`
	FuelConsumed    int64             `json:"fuel_consumed,omitempty"`
	FuelPreemptions uint64            `json:"fuel_preemptions,omitempty"`
	LatencySamples  uint64            `json:"latency_samples,omitempty"`
	LatencyP50      time.Duration     `json:"latency_p50,omitempty"`
	LatencyP95      time.Duration     `json:"latency_p95,omitempty"`
	LatencyP99      time.Duration     `json:"latency_p99,omitempty"`
	LatencyMax      time.Duration     `json:"latency_max,omitempty"`
	Quarantined     bool              `json:"quarantined,omitempty"`
	Note            string            `json:"note,omitempty"`
}

// Snapshot copies the lifetime counts into an exportable form.
func (m *GraftMetrics) Snapshot() GraftSnapshot {
	var t tally
	m.win.lifetime(t.add)
	s := GraftSnapshot{
		Graft:           m.GraftName,
		Tech:            m.Tech,
		Invocations:     t.invocations,
		Errors:          t.errs,
		FuelConsumed:    t.fuel,
		FuelPreemptions: t.traps[mem.TrapFuel],
		LatencySamples:  t.lat.Count(),
		Quarantined:     m.quarantined.Load(),
		Note:            m.Note(),
	}
	for k, n := range t.traps {
		if n > 0 {
			if s.Traps == nil {
				s.Traps = make(map[string]uint64)
			}
			s.Traps[mem.TrapKind(k).String()] = n
		}
	}
	if s.LatencySamples > 0 {
		s.LatencyP50 = t.lat.Quantile(0.50)
		s.LatencyP95 = t.lat.Quantile(0.95)
		s.LatencyP99 = t.lat.Quantile(0.99)
		s.LatencyMax = t.lat.Max()
	}
	return s
}

// registry holds every registered GraftMetrics, keyed by graft/tech.
var registry struct {
	mu    sync.Mutex
	byKey map[string]*GraftMetrics
}

// NewGraftMetrics builds an unregistered accumulator for the (graft,
// technology) pair under the current sampling interval and window
// geometry. Callers that want it exported hand it to Install.
func NewGraftMetrics(graft, tech string) *GraftMetrics {
	return &GraftMetrics{GraftName: graft, Tech: tech, mask: sampleMask.Load(), win: newWindows()}
}

// Register returns the metrics for the (graft, technology) pair,
// creating them on first use. Repeated loads of the same pair share one
// accumulator, so counters survive graft reloads — the bpftool-style
// "what has this program done since boot" view.
func Register(graft, tech string) *GraftMetrics {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if m, ok := registry.byKey[graft+"\x00"+tech]; ok {
		return m
	}
	m := NewGraftMetrics(graft, tech)
	install(m)
	return m
}

// Install registers m under its pair, replacing any earlier accumulator
// of that pair. An owner whose counts must never mix with another's
// (a lifecycle version, whose slot's ledger sums them) installs its own
// accumulator instead of sharing one through Register.
func Install(m *GraftMetrics) {
	registry.mu.Lock()
	install(m)
	registry.mu.Unlock()
}

// install is Install with registry.mu held.
func install(m *GraftMetrics) {
	if registry.byKey == nil {
		registry.byKey = make(map[string]*GraftMetrics)
	}
	registry.byKey[m.GraftName+"\x00"+m.Tech] = m
}

// Metrics returns every registered accumulator, sorted by graft then
// technology for stable output.
func Metrics() []*GraftMetrics {
	registry.mu.Lock()
	out := make([]*GraftMetrics, 0, len(registry.byKey))
	for _, m := range registry.byKey {
		out = append(out, m)
	}
	registry.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].GraftName != out[j].GraftName {
			return out[i].GraftName < out[j].GraftName
		}
		return out[i].Tech < out[j].Tech
	})
	return out
}

// SnapshotAll exports every registered accumulator with at least one
// invocation.
func SnapshotAll() []GraftSnapshot {
	ms := Metrics()
	out := make([]GraftSnapshot, 0, len(ms))
	for _, m := range ms {
		if m.Invocations() == 0 {
			continue
		}
		out = append(out, m.Snapshot())
	}
	return out
}

// ResetMetrics drops every registered accumulator (primarily for tests
// and for ablation runs that compare configurations back to back).
func ResetMetrics() {
	registry.mu.Lock()
	registry.byKey = nil
	registry.mu.Unlock()
}

// String renders a one-line summary, the form kernelsim's counters view
// prints per graft.
func (s GraftSnapshot) String() string {
	return fmt.Sprintf("%s/%s: %d invocations, %d traps, p99=%s",
		s.Graft, s.Tech, s.Invocations, sumTraps(s.Traps), s.LatencyP99)
}

func sumTraps(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}
