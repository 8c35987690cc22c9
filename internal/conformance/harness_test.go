package conformance

import (
	"errors"
	"sync"
	"testing"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
	"graftlab/internal/upcall"
)

// progMemSize is the linear memory for corpus and generated programs.
// 2^16 so the sandbox mask is 0xFFFF; the tame generator keeps every
// access inside [NilPageSize, progMemSize).
const progMemSize = 1 << 16

// oracleFuel is the budget handed to every oracle run: generous enough
// that no bounded generated program can exhaust it, so a fuel trap in
// the oracle means a generator bug, not a slow engine.
const oracleFuel = 1 << 22

// engineDef is one row of the conformance matrix. Every engine runs the
// same GEL/Tcl program; cohort groups the engines whose observable
// semantics must agree *exactly* (same protection policy, same trap
// surface). The matrix — not individual tests — decides what runs, and
// zzz_coverage_test.go fails if a registry technology has no row here
// and no graft-matrix coverage.
type engineDef struct {
	name   string
	id     tech.ID
	vmMode tech.VMMode
	// wrap runs the graft behind an upcall.Domain: same inner policy as
	// native-safe, every invocation crossing the protection boundary.
	wrap bool
}

// engineMatrix is every directly loadable technology that can carry an
// arbitrary GEL/Tcl program, plus both bytecode engines and the upcall
// wrapper. The Compiled* and Domain classes cannot run arbitrary
// programs (they need a hand-written implementation or a HiPEC
// rendering); they are held to the oracle through the per-graft matrix
// in grafts_test.go instead.
var engineMatrix = []engineDef{
	{name: "native-unsafe", id: tech.NativeUnsafe},
	{name: "native-safe", id: tech.NativeSafe},
	{name: "native-safe-nil", id: tech.NativeSafeNil},
	{name: "sfi", id: tech.SFI},
	{name: "sfi-full", id: tech.SFIFull},
	{name: "bytecode-opt", id: tech.Bytecode, vmMode: tech.VMOpt},
	{name: "bytecode-baseline", id: tech.Bytecode, vmMode: tech.VMBaseline},
	{name: "aot", id: tech.AOT},
	{name: "script", id: tech.Script},
	{name: "upcall", id: tech.NativeSafe, wrap: true},
}

// refEngine is the oracle's reference row: checked policy, no NIL page,
// the naive switch-dispatch interpreter with no fusion, no elision and
// per-instruction fuel — the most literal rendering of GEL semantics.
const refEngine = "bytecode-baseline"

// exactCohort lists the engines whose outcomes must match the reference
// byte for byte on every program, tame or wild: the checked engines, the
// unsafe engines (whose crash backstop is observably the same bounds
// trap), and the upcall wrapper. The NIL-checking and sandbox engines
// diverge on wild programs in documented ways and get their own
// predicates in checkProgram.
var exactCohort = map[string]bool{
	"native-unsafe":     true,
	"native-safe":       true,
	"bytecode-opt":      true,
	"bytecode-baseline": true,
	"aot":               true,
	"script":            true,
	"upcall":            true,
}

// outcome is everything observable about one engine running one program.
type outcome struct {
	engine   string
	val      uint32
	err      error
	trap     *mem.Trap // non-nil iff err is a trap
	mem      []byte    // full memory snapshot after the run
	accesses uint64    // fault-plan access count (0 when unarmed)
}

func (o outcome) trapKind() mem.TrapKind {
	if o.trap == nil {
		return mem.TrapNone
	}
	return o.trap.Kind
}

// runEngine loads src under e into a fresh memory and invokes
// entry(args). plan, when non-nil, is armed on the memory before load —
// the load-time decision every engine keys its fault checks on.
func runEngine(t *testing.T, e engineDef, src tech.Source, entry string, args []uint32, fuel int64, plan *mem.FaultPlan) outcome {
	t.Helper()
	m := mem.New(progMemSize)
	if plan != nil {
		m.Arm(plan)
	}
	g, err := tech.Load(e.id, src, m, tech.Options{Fuel: fuel, VM: e.vmMode})
	if err != nil {
		t.Fatalf("engine %s: load %q: %v\nGEL:\n%s\nTcl:\n%s", e.name, src.Name, err, src.GEL, src.Tcl)
	}
	if e.wrap {
		d := upcall.NewDomain(g, 0)
		defer d.Close()
		g = d
	}
	v, err := g.Invoke(entry, args...)
	o := outcome{engine: e.name, val: v, err: err}
	var trap *mem.Trap
	if errors.As(err, &trap) {
		o.trap = trap
	}
	o.mem = append([]byte(nil), m.Data...)
	if plan != nil {
		o.accesses = plan.Accesses()
	}
	markExercised(e.name)
	return o
}

// agreeExact fails unless got matches ref on value, error-ness, trap
// kind/addr/code, and memory. Memory is not compared under stack-
// overflow or fuel traps: call-depth limits and fuel units are
// documented per-engine quantities, so the trap point (and hence the
// partial side effects) may differ. Trap PCs are only meaningful among
// the engines that run the bytecode module and are compared separately
// by the caller.
func agreeExact(t *testing.T, label string, ref, got outcome) {
	t.Helper()
	if (ref.err != nil) != (got.err != nil) {
		t.Fatalf("%s: %s err=%v, %s err=%v", label, ref.engine, ref.err, got.engine, got.err)
	}
	if ref.trap != nil || got.trap != nil {
		if ref.trap == nil || got.trap == nil {
			t.Fatalf("%s: %s trap=%v, %s trap=%v (one is not a *mem.Trap: %v / %v)",
				label, ref.engine, ref.trap, got.engine, got.trap, ref.err, got.err)
		}
		if ref.trap.Kind != got.trap.Kind || ref.trap.Addr != got.trap.Addr || ref.trap.Code != got.trap.Code {
			t.Fatalf("%s: %s trap {%v addr=%#x code=%d}, %s trap {%v addr=%#x code=%d}",
				label, ref.engine, ref.trap.Kind, ref.trap.Addr, ref.trap.Code,
				got.engine, got.trap.Kind, got.trap.Addr, got.trap.Code)
		}
		if ref.trap.Kind == mem.TrapStackOverflow || ref.trap.Kind == mem.TrapFuel {
			return
		}
	} else if ref.val != got.val {
		t.Fatalf("%s: %s=%d, %s=%d", label, ref.engine, ref.val, got.engine, got.val)
	}
	if string(ref.mem) != string(got.mem) {
		t.Fatalf("%s: memory diverges between %s and %s (first diff at %#x)",
			label, ref.engine, got.engine, firstDiff(ref.mem, got.mem))
	}
}

func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// checkProgram runs one program through the whole matrix and applies the
// oracle. tame marks programs whose every memory access is word-aligned
// and inside [NilPageSize, progMemSize): for those, all nine engines
// must agree exactly (masking and NIL checks are identity). Wild
// programs get the per-cohort predicates documented inline.
func checkProgram(t *testing.T, label string, src tech.Source, args []uint32, tame bool) map[string]outcome {
	t.Helper()
	out := make(map[string]outcome, len(engineMatrix))
	for _, e := range engineMatrix {
		o := runEngine(t, e, src, "main", args, oracleFuel, nil)
		if o.trapKind() == mem.TrapFuel {
			t.Fatalf("%s: engine %s exhausted the oracle budget — generator produced an unbounded program\nGEL:\n%s",
				label, e.name, src.GEL)
		}
		out[e.name] = o
	}
	ref := out[refEngine]

	for _, e := range engineMatrix {
		o := out[e.name]
		switch {
		case tame, exactCohort[e.name]:
			agreeExact(t, label+"/"+e.name, ref, o)
		case e.name == "native-safe-nil":
			// Diverges from checked only by trapping NIL-page accesses the
			// checked policy happily performs; anything else is exact.
			if o.trapKind() == mem.TrapNilDeref {
				if o.trap.Addr >= mem.NilPageSize {
					t.Fatalf("%s: %s NIL trap at %#x, outside the NIL page", label, e.name, o.trap.Addr)
				}
			} else {
				agreeExact(t, label+"/"+e.name, ref, o)
			}
		case e.name == "sfi" || e.name == "sfi-full":
			// Sandboxing turns stray stores (and, with read protection,
			// stray loads) into silent in-region accesses; values and
			// memory may legitimately diverge on wild programs. What must
			// hold is the safety claim itself: the only traps a sandboxed
			// graft can raise are non-memory ones — plus the unprotected-
			// load bounds backstop for write/jump-only SFI.
			switch k := o.trapKind(); k {
			case mem.TrapNone, mem.TrapDivZero, mem.TrapAbort, mem.TrapStackOverflow:
			case mem.TrapOOBLoad:
				if e.name == "sfi-full" {
					t.Fatalf("%s: %s trapped %v — read protection must mask loads", label, e.name, k)
				}
			default:
				t.Fatalf("%s: %s trapped %v — sandboxing must confine memory faults", label, e.name, k)
			}
		}
	}

	// Trap PCs are an intra-module contract: both bytecode engines, the
	// AOT translation and the runtime-codegen rows run the same verified
	// module, so a trap must be attributed to the same instruction. The
	// SFI rows are left out: on wild programs their masked accesses
	// change values, so an equal trap kind need not mean the same trap.
	bo, bb := out["bytecode-opt"], out["bytecode-baseline"]
	if bo.trap != nil && bb.trap != nil && bo.trap.Kind == bb.trap.Kind && bo.trap.PC != bb.trap.PC {
		t.Fatalf("%s: bytecode trap PC diverges: opt=%d baseline=%d (%v)", label, bo.trap.PC, bb.trap.PC, bo.trap.Kind)
	}
	for _, name := range []string{"aot", "native-unsafe", "native-safe", "native-safe-nil"} {
		if o := out[name]; o.trap != nil && bo.trap != nil && o.trap.Kind == bo.trap.Kind && o.trap.PC != bo.trap.PC {
			t.Fatalf("%s: %s trap PC diverges from bytecode-opt: %s=%d opt=%d (%v)", label, name, name, o.trap.PC, bo.trap.PC, o.trap.Kind)
		}
	}
	return out
}

// --- coverage bookkeeping (asserted by zzz_coverage_test.go) ---

var (
	coverMu        sync.Mutex
	engineRuns     = map[string]bool{}
	faultClassRuns = map[string]bool{}
	graftTechRuns  = map[tech.ID]bool{}
	graftCellRuns  = map[string]map[tech.ID]bool{}
)

func markExercised(engine string) { coverMu.Lock(); engineRuns[engine] = true; coverMu.Unlock() }
func markFaultClass(class string) { coverMu.Lock(); faultClassRuns[class] = true; coverMu.Unlock() }
func markGraftTech(id tech.ID)    { coverMu.Lock(); graftTechRuns[id] = true; coverMu.Unlock() }
func markGraftCell(graft string, id tech.ID) {
	coverMu.Lock()
	if graftCellRuns[graft] == nil {
		graftCellRuns[graft] = map[tech.ID]bool{}
	}
	graftCellRuns[graft][id] = true
	coverMu.Unlock()
}
func exercisedEngine(name string) bool {
	coverMu.Lock()
	defer coverMu.Unlock()
	return engineRuns[name]
}
