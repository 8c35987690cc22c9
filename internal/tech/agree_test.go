package tech_test

import (
	"errors"
	"testing"

	"graftlab/internal/grafts"
	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

// quotient is main(a, b) = a / b in every representation, faulting when
// b == 0; the GEL loops so the runtime codegen burns fuel too. The
// domain language has no division, so its rendering multiplies instead
// and faults on b == 0 with an out-of-bounds load.
var quotient = tech.Source{
	Name: "quotient",
	GEL:  `func main(a, b) { var i = 0; while (i < 3) { i = i + 1; } return a / b; }`,
	Tcl:  `proc main {a b} { return [expr {$a / $b}] }`,
	Compiled: func(cfg mem.Config, m *mem.Memory) (tech.Graft, error) {
		g := grafts.NewCompiledGraft(m)
		g.Register("main", 2, func(args []uint32) uint32 {
			if args[1] == 0 {
				mem.Throw(mem.TrapDivZero, 0)
			}
			return args[0] / args[1]
		})
		return g, nil
	},
	Hipec: map[string]string{"main": `
	movi r2, 0
	jne  r1, r2, ok
	movi r3, 0xFFFFFF00
	ldw  r3, [r3+0]
ok:
	mul  r0, r0, r1
	ret  r0
`},
}

// outcome is everything a caller can observe of one call.
type outcome struct {
	v    uint32
	err  string
	trap mem.TrapKind
	fuel int64
}

func observe(g tech.Graft, v uint32, err error) outcome {
	o := outcome{v: v}
	if err != nil {
		o.err = err.Error()
		var tr *mem.Trap
		if errors.As(err, &tr) {
			o.trap = tr.Kind
		}
	}
	if fr, ok := g.(tech.FuelReporter); ok {
		o.fuel = fr.FuelUsed()
	}
	return o
}

// TestInvokeAndDirectAgree checks that an entry's Invoke and its
// resolved Direct path are one call path: for every class, bare and
// instrumented, loaded and pooled, both report the same value, trap,
// error text and fuel for a clean call, a trap, a missing entry and the
// wrong arity.
func TestInvokeAndDirectAgree(t *testing.T) {
	opts := tech.Options{Fuel: 1 << 20}
	calls := []struct {
		name  string
		entry string
		args  []uint32
		trap  bool
	}{
		{"ok", "main", []uint32{21, 3}, false},
		{"trap", "main", []uint32{21, 0}, true},
		{"missing", "nope", []uint32{1, 2}, false},
		{"arity", "main", []uint32{1}, false},
	}
	loads := map[string]func(id tech.ID) (tech.Graft, error){
		"load": func(id tech.ID) (tech.Graft, error) {
			return tech.Load(id, quotient, mem.New(1<<12), opts)
		},
		"pool": func(id tech.ID) (tech.Graft, error) {
			p, err := tech.NewPool(id, quotient, opts, tech.PoolConfig{MemSize: 1 << 12})
			if err != nil {
				return nil, err
			}
			it, err := p.Get()
			if err != nil {
				return nil, err
			}
			return it.Graft, nil
		},
	}
	for _, id := range tech.All {
		for how, load := range loads {
			for _, wrapped := range []bool{false, true} {
				g, err := load(id)
				if err != nil {
					t.Fatalf("%s/%s: %v", id, how, err)
				}
				if wrapped {
					g = tech.Instrument(g, quotient.Name, id)
				}
				for _, c := range calls {
					v, err := g.Invoke(c.entry, c.args...)
					viaInvoke := observe(g, v, err)
					v, err = tech.ResolveDirect(g, c.entry)(c.args)
					viaDirect := observe(g, v, err)
					if viaInvoke != viaDirect {
						t.Errorf("%s/%s/wrapped=%t/%s: Invoke %+v, Direct %+v", id, how, wrapped, c.name, viaInvoke, viaDirect)
					}
					if c.trap && viaInvoke.trap == mem.TrapNone {
						t.Errorf("%s/%s/wrapped=%t: %s did not trap: %+v", id, how, wrapped, c.name, viaInvoke)
					}
				}
			}
		}
	}
}

// TestWrappedDirectAllocFree pins the instrumented Direct closure of
// every class the benchmark hooks call at zero allocations per call.
func TestWrappedDirectAllocFree(t *testing.T) {
	for _, id := range []tech.ID{tech.CompiledUnsafe, tech.NativeSafe, tech.SFI, tech.Bytecode, tech.AOT, tech.Domain} {
		g, err := tech.Load(id, quotient, mem.New(1<<12), tech.Options{Fuel: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		fn := tech.ResolveDirect(tech.Instrument(g, quotient.Name, id), "main")
		args := []uint32{21, 3}
		if n := testing.AllocsPerRun(1000, func() {
			if _, err := fn(args); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%s: wrapped Direct made %.2f allocs/call, want 0", id, n)
		}
	}
}
