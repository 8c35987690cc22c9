// Fault injection: a schedulable synthetic trap on the Nth graft memory
// access. The conformance suite uses it to drive every technology class
// down the same failure path — eBPF keeps its interpreter and JITs honest
// the same way, by systematically exercising the paths that only fire
// when something goes wrong.
//
// The plan counts *policy-level* accesses: each ld8/ld32/st8/st32 the
// graft program executes is one access, counted before the technology's
// own protection (bounds check, NIL check, sandbox mask) runs. Because
// the count and the unmasked address are properties of the program, not
// of the policy, every engine must observe the injected trap at the same
// access index with the same address — which is exactly the cross-engine
// property the conformance oracle asserts.
//
// Arming is a load-time decision, like telemetry instrumentation: engines
// read Memory.Faults() when they compile/translate/interpret, so a memory
// that was never armed pays at most a nil pointer test per access (the
// closure classes pay nothing — they specialize their closures at load
// time). Arm must therefore be called before tech.Load.
package mem

// FaultPlan schedules a synthetic trap on the Nth policy-level memory
// access (1-based). The zero FailOn never fires, leaving the plan a pure
// access counter — which is how callers discover how many accesses a
// program performs before scheduling failures at each index.
type FaultPlan struct {
	// FailOn is the 1-based index of the access that traps; 0 disables
	// injection (the plan still counts).
	FailOn uint64
	// Kind overrides the raised trap kind. TrapNone (the zero value)
	// derives it from the access: TrapOOBLoad for loads, TrapOOBStore for
	// stores.
	Kind TrapKind

	count uint64
}

// Accesses reports how many accesses the plan has observed.
func (p *FaultPlan) Accesses() uint64 { return p.count }

// Reset rewinds the access counter so the same plan can arm another run.
func (p *FaultPlan) Reset() { p.count = 0 }

// Check records one access and returns the injected trap when the access
// index hits the schedule, nil otherwise. addr is the graft's address
// before any policy masking, so the trap is policy-independent. The trap
// is returned (not thrown) because the script interpreter propagates
// traps as values; panicking engines throw it themselves.
func (p *FaultPlan) Check(store bool, addr uint32) *Trap {
	p.count++
	if p.FailOn == 0 || p.count != p.FailOn {
		return nil
	}
	kind := p.Kind
	if kind == TrapNone {
		if store {
			kind = TrapOOBStore
		} else {
			kind = TrapOOBLoad
		}
	}
	return &Trap{Kind: kind, Addr: addr}
}

// Arm attaches a fault plan to the memory (nil disarms). Engines consult
// the plan at load time; arming after a graft is loaded has no effect on
// that graft.
func (m *Memory) Arm(p *FaultPlan) { m.faults = p }

// Faults returns the armed fault plan, or nil.
func (m *Memory) Faults() *FaultPlan { return m.faults }
