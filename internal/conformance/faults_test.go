package conformance

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

// TestFaultSchedulerAgreesAcrossEngines is the fault-injection half of
// the oracle: for tame programs the sequence of policy-level memory
// accesses is a property of the program, not of the engine, so failing
// the Nth access must produce the same trap (kind, address) and the
// same partial memory state under every technology class. This is how
// the suite proves the failure paths — not just the happy paths — are
// aligned.
func TestFaultSchedulerAgreesAcrossEngines(t *testing.T) {
	markFaultClass("mem-scheduler")
	seed := suiteSeed(73, 2)
	t.Logf("fault-scheduler seed %d (replay with -seed)", seed)
	rng := rand.New(rand.NewSource(seed))

	var programs []corpusProgram
	for _, p := range corpus {
		if p.tame {
			programs = append(programs, p)
		}
	}
	nRandom := 6
	if testing.Short() {
		nRandom = 2
	}
	for i := 0; i < nRandom; i++ {
		g := &progGen{rng: rng, mode: genTame}
		gelSrc, tclSrc := g.program()
		programs = append(programs, corpusProgram{
			name: fmt.Sprintf("rand-%d", i),
			src:  tech.Source{Name: fmt.Sprintf("rand-%d", i), GEL: gelSrc, Tcl: tclSrc},
			args: []uint32{rng.Uint32(), rng.Uint32() % 65536, rng.Uint32() % 257},
			tame: true,
		})
	}

	refDef := engineByName(t, refEngine)
	for _, p := range programs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			// Pass 1: count the program's accesses with a disarmed plan.
			counter := &mem.FaultPlan{}
			base := runEngine(t, refDef, p.src, "main", p.args, oracleFuel, counter)
			total := counter.Accesses()
			if base.trapKind() == mem.TrapStackOverflow || base.trapKind() == mem.TrapFuel {
				// Depth/fuel limits are per-engine quantities, so the access
				// sequence itself differs across the matrix — the scheduler's
				// premise does not hold for such programs.
				t.Skipf("base run hits a per-engine limit (%v); access sequence is not policy-independent", base.err)
			}
			if total == 0 {
				t.Skipf("program performs no memory accesses")
			}

			// Pass 2: schedule a fault at sampled access indices and
			// require nine-way agreement on the injected trap.
			ks := sampleIndices(rng, total, 8)
			for _, k := range ks {
				var ref outcome
				for i, e := range engineMatrix {
					plan := &mem.FaultPlan{FailOn: k}
					o := runEngine(t, e, p.src, "main", p.args, oracleFuel, plan)
					if o.trap == nil {
						t.Fatalf("access %d/%d: engine %s did not trap (err=%v)", k, total, e.name, o.err)
					}
					if o.trap.Kind != mem.TrapOOBLoad && o.trap.Kind != mem.TrapOOBStore {
						t.Fatalf("access %d/%d: engine %s trapped %v, want an injected OOB kind", k, total, e.name, o.trap.Kind)
					}
					if o.accesses != k {
						t.Fatalf("access %d/%d: engine %s retired %d accesses after the trap", k, total, e.name, o.accesses)
					}
					if i == 0 {
						ref = o
						continue
					}
					agreeExact(t, fmt.Sprintf("%s@access-%d/%s", p.name, k, e.name), ref, o)
				}
			}

			// Pass 3: a schedule beyond the program's last access must be
			// inert — identical outcome, full access count.
			for _, e := range engineMatrix {
				plan := &mem.FaultPlan{FailOn: total + 5}
				o := runEngine(t, e, p.src, "main", p.args, oracleFuel, plan)
				agreeExact(t, fmt.Sprintf("%s@beyond/%s", p.name, e.name), base, o)
				if o.accesses != total {
					t.Fatalf("beyond-schedule run under %s retired %d accesses, want %d", e.name, o.accesses, total)
				}
			}

			// Pass 4: the Kind override is delivered verbatim everywhere.
			k := ks[0]
			for _, e := range engineMatrix {
				plan := &mem.FaultPlan{FailOn: k, Kind: mem.TrapUnreachable}
				o := runEngine(t, e, p.src, "main", p.args, oracleFuel, plan)
				if o.trapKind() != mem.TrapUnreachable {
					t.Fatalf("kind override under %s: got %v", e.name, o.err)
				}
			}
		})
	}
}

// sampleIndices picks up to n distinct 1-based indices in [1, total],
// always including the first and last access.
func sampleIndices(rng *rand.Rand, total uint64, n int) []uint64 {
	seen := map[uint64]bool{1: true, total: true}
	out := []uint64{1}
	if total > 1 {
		out = append(out, total)
	}
	for len(out) < n && uint64(len(out)) < total {
		k := rng.Uint64()%total + 1
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

func engineByName(t *testing.T, name string) engineDef {
	t.Helper()
	for _, e := range engineMatrix {
		if e.name == name {
			return e
		}
	}
	t.Fatalf("no engine %q in the matrix", name)
	return engineDef{}
}

// TestFuelCliffs probes randomized fuel budgets on every engine. Fuel
// units are a per-class quantity (bytecode instructions for the VMs and
// for the closure classes, which charge them per basic block; commands
// for the script interpreter), so the cross-engine property is a shared
// *shape*: each engine has a single cliff — every budget below it
// fuel-traps, every budget at or above it completes with the unmetered
// result. Every engine that meters the bytecode instruction stream —
// both VMs, AOT, the runtime-codegen and SFI rows, and the upcall
// wrapper around native-safe — must put the cliff in exactly the same
// place: block-granular metering preserves the completion threshold.
func TestFuelCliffs(t *testing.T) {
	markFaultClass("fuel-cliff")
	seed := suiteSeed(74, 3)
	t.Logf("fuel-cliff seed %d (replay with -seed)", seed)
	rng := rand.New(rand.NewSource(seed))
	programs := []string{"memsweep", "recursion", "bytes"}
	probes := 6
	if testing.Short() {
		probes = 2
	}

	for _, name := range programs {
		p := corpusByName(t, name)
		t.Run(name, func(t *testing.T) {
			thresholds := make(map[string]int64)
			for _, e := range engineMatrix {
				unmetered := runEngine(t, e, p.src, "main", p.args, 0, nil)
				if unmetered.err != nil {
					t.Fatalf("%s: unmetered run failed: %v", e.name, unmetered.err)
				}
				complete := func(budget int64) outcome {
					return runEngine(t, e, p.src, "main", p.args, budget, nil)
				}
				if o := complete(oracleFuel); o.err != nil {
					t.Fatalf("%s: oracle budget insufficient: %v", e.name, o.err)
				}
				// Binary search the cliff; metering is deterministic, so
				// completion is monotone in the budget.
				lo, hi := int64(1), int64(oracleFuel)
				for lo < hi {
					mid := (lo + hi) / 2
					if complete(mid).err == nil {
						hi = mid
					} else {
						lo = mid + 1
					}
				}
				cliff := lo
				thresholds[e.name] = cliff
				if o := complete(cliff); o.err != nil || o.val != unmetered.val {
					t.Fatalf("%s: budget %d at the cliff: val=%d err=%v, want %d", e.name, cliff, o.val, o.err, unmetered.val)
				}
				if cliff > 1 {
					if o := complete(cliff - 1); o.trapKind() != mem.TrapFuel {
						t.Fatalf("%s: budget %d below the cliff: err=%v, want fuel trap", e.name, cliff-1, o.err)
					}
				}
				for i := 0; i < probes; i++ {
					b := rng.Int63n(2*cliff) + 1
					o := complete(b)
					if b >= cliff {
						if o.err != nil || o.val != unmetered.val {
							t.Fatalf("%s: budget %d (cliff %d): val=%d err=%v, want completion", e.name, b, cliff, o.val, o.err)
						}
					} else if o.trapKind() != mem.TrapFuel {
						t.Fatalf("%s: budget %d (cliff %d): err=%v, want fuel trap", e.name, b, cliff, o.err)
					}
				}
			}
			if a, b := thresholds["bytecode-opt"], thresholds["bytecode-baseline"]; a != b {
				t.Fatalf("bytecode fuel cliffs diverge: opt=%d baseline=%d", a, b)
			}
			// The closure classes meter the same verified instruction
			// stream from the same block CFG, so their cliff must be the
			// bytecode engines' cliff exactly — neither bounds-check
			// elision nor a policy's checks or masks may move the
			// preemption threshold.
			for _, e := range engineMatrix {
				if e.id == tech.Bytecode || e.id == tech.Script {
					continue
				}
				if a, b := thresholds[e.name], thresholds["bytecode-opt"]; a != b {
					t.Fatalf("%s fuel cliff diverges from bytecode: %s=%d opt=%d", e.name, e.name, a, b)
				}
			}
		})
	}
}

func corpusByName(t *testing.T, name string) corpusProgram {
	t.Helper()
	for _, p := range corpus {
		if p.name == name {
			return p
		}
	}
	t.Fatalf("no corpus program %q", name)
	return corpusProgram{}
}

// TestUpcallDeliveryFaults injects transport failures on the upcall
// boundary: every Nth invocation must fail with ErrDelivery — not a
// trap, the graft never ran — and the domain must remain fully usable
// in between and after.
func TestUpcallDeliveryFaults(t *testing.T) {
	markFaultClass("upcall-delivery")
	p := corpusByName(t, "memsweep")
	m := mem.New(progMemSize)
	g, err := tech.Load(tech.NativeSafe, p.src, m, tech.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := g.Invoke("main", p.args...)
	if err != nil {
		t.Fatal(err)
	}

	d := upcall.NewDomain(g, 0)
	defer d.Close()
	d.FailDelivery(3)
	for i := 1; i <= 12; i++ {
		v, err := d.Invoke("main", p.args...)
		if i%3 == 0 {
			if !errors.Is(err, upcall.ErrDelivery) {
				t.Fatalf("call %d: err=%v, want ErrDelivery", i, err)
			}
			var trap *mem.Trap
			if errors.As(err, &trap) {
				t.Fatalf("call %d: delivery failure surfaced as a graft trap %v", i, trap)
			}
			continue
		}
		if err != nil || v != want {
			t.Fatalf("call %d: val=%d err=%v, want %d", i, v, err, want)
		}
	}
	d.FailDelivery(0)
	if v, err := d.Invoke("main", p.args...); err != nil || v != want {
		t.Fatalf("after disarm: val=%d err=%v, want %d", v, err, want)
	}
	markExercised("upcall")
}
