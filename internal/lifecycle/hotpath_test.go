package lifecycle_test

import (
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// raceEnabled is set by race_test.go in race-detector builds, where
// sync.Pool drops returned items on purpose, so a pooled carrier builds
// (and allocates) fresh instances no matter what the slot does.
var raceEnabled bool

// slotDoCase is one data-plane configuration the hot-path test and
// benchmark price.
type slotDoCase struct {
	id        tech.ID
	pooled    bool // PoolLoader's carrier instead of Loader's Single
	telemetry bool
}

// slotDoCases are the compiled class and the AOT class on a Single
// carrier, and the AOT class on a pooled one, each with telemetry (and
// so the exported versioned key) on and off.
var slotDoCases = []slotDoCase{
	{tech.CompiledUnsafe, false, false},
	{tech.CompiledUnsafe, false, true},
	{tech.AOT, false, false},
	{tech.AOT, false, true},
	{tech.AOT, true, false},
	{tech.AOT, true, true},
}

func (c slotDoCase) String() string {
	name := string(c.id)
	if c.pooled {
		name += "/pool"
	}
	if c.telemetry {
		return name + "/telemetry"
	}
	return name + "/bare"
}

// pfFramePort is the port the staged frame targets and the filter
// accepts.
const pfFramePort = 5001

// stagePFFrame configures the packet filter and stages one matching
// 60-byte UDP frame in its buffer, so every filter(60) call accepts.
func stagePFFrame(m *mem.Memory) error {
	grafts.ConfigurePacketFilter(m, pfFramePort)
	for i := uint32(0); i < 60; i++ {
		m.St8U(grafts.PFBufAddr+i, 0)
	}
	m.St8U(grafts.PFBufAddr+12, 0x08) // ethertype IPv4
	m.St8U(grafts.PFBufAddr+23, 17)   // protocol UDP
	m.St8U(grafts.PFBufAddr+36, pfFramePort>>8)
	m.St8U(grafts.PFBufAddr+37, pfFramePort&0xff)
	return nil
}

// pfSlot activates the packet filter as c asks: under c.id, on a Single
// or a pooled carrier (every pooled instance stages the frame), with
// telemetry switched on or off.
func pfSlot(tb testing.TB, c slotDoCase) *lifecycle.Slot {
	tb.Helper()
	telemetry.ResetMetrics()
	telemetry.SetEnabled(c.telemetry)
	tb.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})
	load := lifecycle.Loader(c.id, grafts.PFMemSize, tech.Options{})
	if c.pooled {
		load = lifecycle.PoolLoader(c.id, tech.Options{},
			tech.PoolConfig{MemSize: grafts.PFMemSize, Setup: stagePFFrame})
	}
	s := lifecycle.NewSlot("pf", c.id, load)
	if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), stagePFFrame); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSlotDoAllocFree pins the committed data-plane path at zero heap
// allocations: routing, the carrier's acquire/release, timing and the
// per-version record, on Single and pooled carriers, with telemetry on
// and off.
func TestSlotDoAllocFree(t *testing.T) {
	args := []uint32{60}
	for _, c := range slotDoCases {
		name := c.String()
		if c.pooled && raceEnabled {
			t.Logf("%s: not counted under the race detector (sync.Pool drops items)", name)
			continue
		}
		s := pfSlot(t, c)
		var res lifecycle.Result
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			res, err = s.Do("filter", nil, args...)
		})
		if err != nil || res.Value != 1 {
			t.Fatalf("%s: filter(60) = %d, %v; want 1", name, res.Value, err)
		}
		if allocs != 0 {
			t.Errorf("%s: Slot.Do allocates %.2f times per call, want 0", name, allocs)
		}
	}
}

// BenchmarkSlotDo prices one committed invocation through a slot: the
// packet filter's own cost plus the lifecycle toll (live-set load,
// carrier acquire/release, two clock reads, revalidation and the
// version's one Commit into its accumulator; with telemetry, the
// engine's own instrumented wrapper too).
func BenchmarkSlotDo(b *testing.B) {
	args := []uint32{60}
	for _, c := range slotDoCases {
		b.Run(c.String(), func(b *testing.B) {
			s := pfSlot(b, c)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, err := s.Do("filter", nil, args...); err != nil || res.Value != 1 {
					b.Fatalf("filter(60) = %d, %v; want 1", res.Value, err)
				}
			}
		})
	}
}
