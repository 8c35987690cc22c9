package lifecycle_test

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"graftlab/internal/lifecycle"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// tinyWindows shrinks the bucket ring to two 100µs slices, so every
// version's accumulator rotates (and retires counts) many times within
// a test, and restores the default afterwards.
func tinyWindows(t *testing.T) {
	t.Helper()
	if err := telemetry.SetWindowConfig(telemetry.WindowConfig{Width: 100 * time.Microsecond, Buckets: 2}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := telemetry.SetWindowConfig(telemetry.DefaultWindowConfig); err != nil {
			t.Fatal(err)
		}
	})
}

// ledgerLoad drives s from workers goroutines for iters calls each:
// trapping calls (x == 13) and failing preps mixed in, and worker 0
// cycling Stage → Promote → Rollback from inside its loop so swaps
// interleave with invocations even on GOMAXPROCS=1. It returns how many
// calls committed and how many aborted, or the first unexpected error.
func ledgerLoad(s *lifecycle.Slot, workers, iters int) (committed, aborted uint64, err error) {
	boom := errors.New("prep failed")
	failPrep := func(*mem.Memory) error { return boom }
	var mu sync.Mutex
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var c, a uint64
			next := uint64(2)
			for i := 0; i < iters; i++ {
				x := uint32((w*7 + i) % 17)
				var prep func(*mem.Memory) error
				if i%11 == 5 {
					prep = failPrep
				}
				_, err := s.Do("decide", prep, x)
				switch {
				case errors.Is(err, boom):
					a++
				case err == nil || x == 13:
					c++
				default:
					errs[w] = err
					return
				}
				if w == 0 && i%25 == 0 {
					switch (i / 25) % 3 {
					case 0:
						err = s.Stage(tech.NewArtifact(decideSrc(int(next%9)+1), next), nil, 3)
						next++
					case 1:
						err = s.Promote()
					case 2:
						err = s.Rollback()
					}
					if err != nil {
						errs[w] = err
						return
					}
				}
			}
			mu.Lock()
			committed += c
			aborted += a
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	return committed, aborted, errors.Join(errs...)
}

// TestLedgerConcurrentSwapsTinyWindows pins the conservation ledger
// against the derived lifetime counts: with two-slice 100µs rings,
// every version's accumulator retires its counts many times while
// concurrent Do calls race Stage/Promote/Rollback, and Issued ==
// Committed + Aborted must still hold exactly, with telemetry on and
// off.
func TestLedgerConcurrentSwapsTinyWindows(t *testing.T) {
	workers, iters := 6, 300
	if testing.Short() {
		workers, iters = 4, 100
	}
	for _, withTelemetry := range []bool{false, true} {
		name := "bare"
		if withTelemetry {
			name = "telemetry"
		}
		t.Run(name, func(t *testing.T) {
			telemetry.ResetMetrics()
			telemetry.SetEnabled(withTelemetry)
			t.Cleanup(func() {
				telemetry.SetEnabled(false)
				telemetry.ResetMetrics()
			})
			tinyWindows(t)
			s := decideSlot(t, tech.Bytecode)
			if err := s.Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
				t.Fatal(err)
			}
			committed, aborted, err := ledgerLoad(s, workers, iters)
			if err != nil {
				t.Fatal(err)
			}

			a := s.Accounting()
			if a.Issued != a.Committed+a.Aborted {
				t.Fatalf("ledger %+v: issued != committed + aborted", a)
			}
			if a.Issued != uint64(workers*iters) || a.Committed != committed || a.Aborted != aborted {
				t.Fatalf("ledger %+v, want issued %d, committed %d, aborted %d",
					a, workers*iters, committed, aborted)
			}
			if a.Swaps == 0 || a.Rollbacks == 0 {
				t.Fatalf("ledger %+v: the control plane never swapped or rolled back", a)
			}
			var lifetime, recent uint64
			for _, v := range s.Versions() {
				lifetime += v.Snapshot().Invocations
			}
			for _, m := range telemetry.Metrics() {
				if strings.HasPrefix(m.GraftName, "decide@") {
					recent += m.Window(m.WindowSpan()).Invocations
				}
			}
			if lifetime != a.Committed {
				t.Fatalf("version snapshots hold %d invocations, ledger committed %d", lifetime, a.Committed)
			}
			if withTelemetry && recent >= lifetime {
				t.Fatalf("windows still hold %d of %d invocations: no rotation retired counts (geometry broken)", recent, lifetime)
			}
		})
	}
}

// TestSameNamedSlotsConcurrentLedgers runs two slots of one name with
// telemetry on. Their versions share versioned names ("twin@v1"), but
// each version owns its accumulator, so each slot's ledger counts only
// its own traffic; the registry exports the later deployment's key.
func TestSameNamedSlotsConcurrentLedgers(t *testing.T) {
	resetTelemetry(t)
	slots := [2]*lifecycle.Slot{}
	for i := range slots {
		slots[i] = lifecycle.NewSlot("twin", tech.Bytecode,
			lifecycle.Loader(tech.Bytecode, decideMemSize, tech.Options{Fuel: 1 << 20}))
		if err := slots[i].Activate(tech.NewArtifact(decideSrc(1), 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	var want [2][2]uint64 // committed, aborted per slot
	var errs [2]error
	var wg sync.WaitGroup
	for i := range slots {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, a, err := ledgerLoad(slots[i], 2, 100*(i+1))
			want[i], errs[i] = [2]uint64{c, a}, err
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		t.Fatal(err)
	}
	for i, s := range slots {
		a := s.Accounting()
		if a.Issued != a.Committed+a.Aborted || a.Committed != want[i][0] || a.Aborted != want[i][1] {
			t.Errorf("slot %d ledger %+v, want committed %d, aborted %d", i, a, want[i][0], want[i][1])
		}
	}
	key := lifecycle.VersionedName("twin", 1)
	for _, m := range telemetry.Metrics() {
		if m.GraftName == key {
			if got, want := m.Invocations(), slots[1].Versions()[0].Invocations(); got != want {
				t.Errorf("%s exports %d invocations, the later slot's v1 committed %d", key, got, want)
			}
			return
		}
	}
	t.Fatalf("no key registered under %s", key)
}
