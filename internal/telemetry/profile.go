package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// Sampling profiler. The metered engines already pay a fuel decrement
// per block (OptVM), per instruction (baseline VM), or per command
// (script interpreter); the profiler piggybacks on exactly those checks:
// each engine keeps a private countdown of fuel units and, every
// Interval units, records one sample against the current function and
// source line (resolved through the bytecode line table emitted by
// internal/compile). A sample carries Interval units of fuel as its
// weight, so aggregate attribution is exact in expectation — a site
// that burns 10% of a graft's fuel owns 10% of the sample weight —
// while the per-block cost of an idle profiler is one predictable
// branch on a non-atomic field.
//
// Like the metrics subsystem, the decision is made at load time:
// engines loaded while the profiler is enabled get a ProfScope handle;
// engines loaded while it is off carry a nil scope and zero countdown,
// making disabled runs byte-identical to a build without the profiler.

// DefaultProfileInterval is the sample weight in fuel units: one sample
// per 4096 units keeps the locked map update invisible next to the
// ~4096 instructions it stands for, while a paper-scale MD5 run
// (millions of fuel units) still collects hundreds of samples.
const DefaultProfileInterval = 4096

// ProfSite identifies one attribution bucket: a source line (or, for
// the script interpreter, a command name) inside one (graft, tech).
type ProfSite struct {
	Graft string
	Tech  string
	Func  string // bytecode function or script command name
	Line  int    // 1-based source line; 0 when no line table is available
}

// ProfSample is one exported bucket with its accumulated weight.
type ProfSample struct {
	ProfSite
	Fuel int64  // total attributed fuel units (Hits × interval)
	Hits uint64 // number of raw samples
}

// Profile accumulates samples from every profiled engine. One locked
// map is enough: with the default interval a sample stands for ~4096
// executed fuel units, so even a dozen concurrent workers hit the lock
// a few hundred thousand times per second at most.
type Profile struct {
	interval int64

	mu      sync.Mutex
	samples map[ProfSite]*profCell
}

type profCell struct {
	fuel int64
	hits uint64
}

// NewProfile builds a profile sampling every interval fuel units.
func NewProfile(interval int64) (*Profile, error) {
	if interval < 1 {
		return nil, fmt.Errorf("telemetry: profile interval must be >= 1, got %d", interval)
	}
	return &Profile{interval: interval, samples: make(map[ProfSite]*profCell)}, nil
}

// Interval returns the fuel-unit sampling interval.
func (p *Profile) Interval() int64 { return p.interval }

// Scope pre-binds the (graft, tech) half of the sample key so the
// engine-side hot path passes only a function name and line.
func (p *Profile) Scope(graft, tech string) *ProfScope {
	return &ProfScope{p: p, graft: graft, tech: tech}
}

// ProfScope is the handle an engine records samples through.
type ProfScope struct {
	p     *Profile
	graft string
	tech  string
}

// Hit records one sample of weight fuel against fn:line.
func (s *ProfScope) Hit(fn string, line int, fuel int64) {
	site := ProfSite{Graft: s.graft, Tech: s.tech, Func: fn, Line: line}
	s.p.mu.Lock()
	c := s.p.samples[site]
	if c == nil {
		c = &profCell{}
		s.p.samples[site] = c
	}
	c.fuel += fuel
	c.hits++
	s.p.mu.Unlock()
}

// Samples returns every bucket, heaviest first (ties broken by site for
// stable output).
func (p *Profile) Samples() []ProfSample {
	p.mu.Lock()
	out := make([]ProfSample, 0, len(p.samples))
	for site, c := range p.samples {
		out = append(out, ProfSample{ProfSite: site, Fuel: c.fuel, Hits: c.hits})
	}
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fuel != out[j].Fuel {
			return out[i].Fuel > out[j].Fuel
		}
		a, b := out[i].ProfSite, out[j].ProfSite
		if a.Graft != b.Graft {
			return a.Graft < b.Graft
		}
		if a.Tech != b.Tech {
			return a.Tech < b.Tech
		}
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.Line < b.Line
	})
	return out
}

// TotalFuel returns the summed weight of every sample.
func (p *Profile) TotalFuel() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var t int64
	for _, c := range p.samples {
		t += c.fuel
	}
	return t
}

// WriteFolded writes the profile in folded-stack format, one line per
// site — "graft;tech;func:line weight" — the input format flamegraph
// tools (inferno, flamegraph.pl, speedscope) consume directly. Sites
// without line info fold to "graft;tech;func".
func (p *Profile) WriteFolded(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, s := range p.Samples() {
		frame := s.Func
		if s.Line > 0 {
			frame = fmt.Sprintf("%s:%d", s.Func, s.Line)
		}
		if _, err := fmt.Fprintf(bw, "%s;%s;%s %d\n", s.Graft, s.Tech, frame, s.Fuel); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// LineTable renders the per-line fuel table: each site's absolute fuel,
// its share of the owning (graft, tech) total, and — when the metrics
// registry has latency data for the pair — an estimated wall-time
// attribution (share × invocations × mean sampled latency).
func (p *Profile) LineTable() string {
	samples := p.Samples()
	totals := make(map[[2]string]int64)
	for _, s := range samples {
		totals[[2]string{s.Graft, s.Tech}] += s.Fuel
	}
	estNs := make(map[[2]string]float64)
	for pair := range totals {
		if m := lookup(pair[0], pair[1]); m != nil {
			if h := m.Latency(); h.Count() > 0 {
				estNs[pair] = float64(h.Mean()) * float64(m.Invocations())
			}
		}
	}
	var b []byte
	b = append(b, fmt.Sprintf("%-12s %-10s %-24s %12s %7s %10s\n",
		"graft", "tech", "site", "fuel", "share", "est time")...)
	for _, s := range samples {
		pair := [2]string{s.Graft, s.Tech}
		share := float64(s.Fuel) / float64(totals[pair])
		site := s.Func
		if s.Line > 0 {
			site = fmt.Sprintf("%s:%d", s.Func, s.Line)
		}
		est := "-"
		if t := estNs[pair]; t > 0 {
			est = fmt.Sprintf("%.2fms", share*t/1e6)
		}
		b = append(b, fmt.Sprintf("%-12s %-10s %-24s %12d %6.1f%% %10s\n",
			s.Graft, s.Tech, site, s.Fuel, 100*share, est)...)
	}
	return string(b)
}

// lookup fetches a registered GraftMetrics without creating one.
func lookup(graft, tech string) *GraftMetrics {
	key := graft + "\x00" + tech
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return registry.byKey[key]
}

// profiler is the live profile; nil pointer means disabled. Engines
// capture the pointer at load time, mirroring the metrics wrap.
var profiler atomic.Pointer[Profile]

// EnableProfiler installs a fresh profile sampling every interval fuel
// units (DefaultProfileInterval when interval is 0) and returns it.
// Only engines loaded after the call are profiled.
func EnableProfiler(interval int64) (*Profile, error) {
	if interval == 0 {
		interval = DefaultProfileInterval
	}
	p, err := NewProfile(interval)
	if err != nil {
		return nil, err
	}
	profiler.Store(p)
	return p, nil
}

// DisableProfiler stops sampling for engines loaded afterwards; already
// loaded engines keep their captured scope.
func DisableProfiler() { profiler.Store(nil) }

// ProfilerEnabled reports whether a profile is installed.
func ProfilerEnabled() bool { return profiler.Load() != nil }

// CurrentProfile returns the installed profile, or nil.
func CurrentProfile() *Profile { return profiler.Load() }
