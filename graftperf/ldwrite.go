package main

import (
	"fmt"
	"time"

	"graftlab/internal/disk"
	"graftlab/internal/grafts"
	"graftlab/internal/ld"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/vclock"
	"graftlab/internal/workload"
)

// ld-write: the Black Box graft. Each slice writes one disk's worth of
// an 80/20-skewed block stream — the log size, since the logical disk
// runs without a cleaner — through ld.LD over the simulated disk, with
// the mapping done by the ldmap graft. One event is one 16-write
// segment, ending in its flush.
const (
	ldEventsPerSlice = ldBlocks / ld.SegmentBlocks
	ldRate           = 5.0
)

// ldBlocks sizes the disk: a 256 MB disk of 4 KB blocks, whose 256 KB
// mapping table stays in cache, so an event costs the graft and its call
// path rather than cache misses on a table of the paper's 1 GB disk.
const ldBlocks = 65536

var ldGeometry = func() disk.Geometry {
	g := disk.DefaultGeometry()
	g.Blocks = ldBlocks
	return g
}()

type ldBench struct {
	seed   uint64
	stream []uint32
	ref    *ld.NativeMapper
}

func startLD(seed uint64, rounds int) (bench, error) {
	return &ldBench{seed: seed, stream: make([]uint32, ldBlocks)}, nil
}

// prepare draws round r's stream and maps it with ld.NativeMapper, the
// in-kernel reference implementation.
func (b *ldBench) prepare(r int) error {
	s := workload.NewSkewed(ldBlocks, mix(b.seed, uint64(r)+2))
	b.ref = ld.NewNativeMapper(ldBlocks)
	for i := range b.stream {
		b.stream[i] = s.Next()
		if _, err := b.ref.MapWrite(b.stream[i]); err != nil {
			return err
		}
	}
	return nil
}

type ldLane struct {
	b       *ldBench
	g       tech.Graft
	closer  func()
	ld      *ld.LD
	tr      *tracer
	writes  int64
	flushes int64
	diskSum time.Duration
	slices  int64
}

func (b *ldBench) newLane(c class, tr *tracer, m *mem.Memory) (lane, error) {
	g, closer, err := loadClass(c, grafts.LDMap, m, tr)
	if err != nil {
		return nil, err
	}
	l := &ldLane{b: b, g: g, closer: closer, tr: tr}
	if err := l.reset(); err != nil {
		closer()
		return nil, err
	}
	return l, nil
}

// reset starts a fresh log: a new disk, a re-initialized mapping table
// and a new logical disk over them.
func (l *ldLane) reset() error {
	dev := disk.New(ldGeometry, &vclock.Clock{})
	gm, err := grafts.NewGraftMapper(l.g, ldBlocks)
	if err != nil {
		return err
	}
	l.ld = ld.New(dev, gm, false)
	if l.tr != nil {
		l.tr.discard()
	}
	return nil
}

func (l *ldLane) run(lat []int32) ([]int32, int, error) {
	if err := l.reset(); err != nil {
		return lat, 0, err
	}
	failed := 0
	stream := l.b.stream
	for e := 0; e < ldEventsPerSlice; e++ {
		seg := stream[e*ld.SegmentBlocks : (e+1)*ld.SegmentBlocks]
		var err error
		t0 := nanotime()
		if l.tr == nil {
			for _, blk := range seg {
				if err = l.ld.Write(blk); err != nil {
					break
				}
			}
			lat = append(lat, int32(nanotime()-t0))
		} else {
			for _, blk := range seg {
				i := l.tr.begin(spanLayer)
				err = l.ld.Write(blk)
				l.tr.end(i)
				if err != nil {
					break
				}
			}
			lat = append(lat, int32(nanotime()-t0))
			l.tr.fold()
		}
		if err != nil {
			failed++
		}
	}
	st := l.ld.Stats()
	l.writes += int64(st.Writes)
	l.flushes += int64(st.SegmentFlush)
	l.diskSum += st.DiskTime
	l.slices++
	return lat, failed, nil
}

// check compares the mapping table the graft left in its memory, and the
// logical disk's counters, with the reference after one disk's worth of
// writes.
func (l *ldLane) check() error {
	return compareLD(l.g.Memory(), l.ld.Stats(), l.b.ref)
}

func compareLD(m *mem.Memory, st ld.Stats, ref *ld.NativeMapper) error {
	if st.Writes != ldBlocks || st.SegmentFlush != ldBlocks/ld.SegmentBlocks {
		return fmt.Errorf("%d writes and %d segment flushes, want %d and %d", st.Writes, st.SegmentFlush, ldBlocks, ldBlocks/ld.SegmentBlocks)
	}
	for blk := uint32(0); blk < ldBlocks; blk++ {
		want, err := ref.MapRead(blk)
		if err != nil {
			return err
		}
		if got := m.Ld32U(grafts.LDMapBase + 4*blk); got != want {
			return fmt.Errorf("logical block %d maps to %#x, reference %#x", blk, got, want)
		}
	}
	return nil
}

func (l *ldLane) calls() int64 { return l.writes }

func (l *ldLane) close() { l.closer() }

func (b *ldBench) finish(lanes []*laneState, m *metrics) error {
	if !traced(lanes) {
		return nil
	}
	var self, n, flushes, slices int64
	var diskSum time.Duration
	for _, ls := range lanes {
		l := ls.l.(*ldLane)
		flushes += l.flushes
		diskSum += l.diskSum
		slices += l.slices
		if ls.tr != nil {
			self += ls.tr.self[spanLayer]
			n += ls.tr.n[spanLayer]
		}
	}
	fuelPerCall(lanes, m)
	if err := addSetupPhases(m, grafts.LDMap, grafts.LDMemSize); err != nil {
		return err
	}
	m.add("ld.write_self_ns", ratio(float64(self), float64(n)), "ns")
	m.add("ld.segment_flushes", float64(flushes), "count")
	m.add("disk.virtual_s", ratio(diskSum.Seconds(), float64(slices)), "s")
	addUnusedLayers(m, "kernel", "lifecycle", "telemetry")
	return nil
}

func (b *ldBench) close() {}
