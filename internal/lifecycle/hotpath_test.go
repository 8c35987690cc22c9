package lifecycle_test

import (
	"fmt"
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// slotDoCases are the data-plane configurations the hot-path test and
// benchmark price: the compiled class and the AOT class, each with the
// versioned telemetry mirror on and off.
var slotDoCases = []struct {
	id        tech.ID
	telemetry bool
}{
	{tech.CompiledUnsafe, false},
	{tech.CompiledUnsafe, true},
	{tech.AOT, false},
	{tech.AOT, true},
}

func slotDoName(id tech.ID, withTelemetry bool) string {
	if withTelemetry {
		return fmt.Sprintf("%s/telemetry", id)
	}
	return fmt.Sprintf("%s/bare", id)
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

// pfSlot activates the packet filter under id on a Single carrier, with
// telemetry (and so the versioned mirror) switched as asked.
func pfSlot(tb testing.TB, id tech.ID, withTelemetry bool) *lifecycle.Slot {
	tb.Helper()
	telemetry.ResetMetrics()
	telemetry.SetEnabled(withTelemetry)
	tb.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.ResetMetrics()
	})
	s := lifecycle.NewSlot("pf", id, lifecycle.Loader(id, grafts.PFMemSize, tech.Options{}))
	if err := s.Activate(tech.NewArtifact(grafts.PacketFilter, 1), stagePFFrame); err != nil {
		tb.Fatal(err)
	}
	return s
}

// TestSlotDoAllocFree pins the committed data-plane path at zero heap
// allocations: routing, the carrier's acquire/release, timing and the
// per-version record, with and without the telemetry mirror.
func TestSlotDoAllocFree(t *testing.T) {
	args := []uint32{60}
	for _, c := range slotDoCases {
		name := slotDoName(c.id, c.telemetry)
		s := pfSlot(t, c.id, c.telemetry)
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
// carrier acquire/release, two clock reads, revalidation, per-version
// record and, with telemetry, the versioned key's counters).
func BenchmarkSlotDo(b *testing.B) {
	args := []uint32{60}
	for _, c := range slotDoCases {
		b.Run(slotDoName(c.id, c.telemetry), func(b *testing.B) {
			s := pfSlot(b, c.id, c.telemetry)
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
