// Package native compiles checked GEL programs to closure-threaded Go
// code: every AST node becomes a Go closure, so a graft executes as a tree
// of direct calls with no per-instruction dispatch. This is the repo's
// "compiled" technology class, standing in for three of the paper's
// technologies depending on the memory policy baked in at compile time:
//
//   - mem.PolicyUnsafe:  unsafe C linked into the kernel (no extra checks)
//   - mem.PolicyChecked: Modula-3 (bounds checks; optional explicit NIL
//     checks, reproducing the paper's Linux-vs-Solaris compiler split)
//   - mem.PolicySandbox: Omniware-style SFI (store masking; optional load
//     masking, reproducing the "no read protection" beta caveat)
//
// The policy is specialized into the generated closures, so the only
// difference between the three modes at run time is the check instructions
// themselves — exactly the quantity the paper is measuring.
package native

import (
	"fmt"

	"graftlab/internal/gel"
	"graftlab/internal/mem"
)

type ctl int

const (
	ctlNext ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

type frame struct {
	locals []uint32
	ret    uint32
}

type exprFn func(*frame) uint32
type stmtFn func(*frame) ctl

type compiledFunc struct {
	name    string
	nargs   int
	nlocals int
	body    stmtFn
}

// Prog is a natively compiled graft program bound to one linear memory.
// Not safe for concurrent use (kernel hook points serialize invocations).
type Prog struct {
	funcs  []*compiledFunc
	byName map[string]int
	mem    *mem.Memory
	cfg    mem.Config

	// Fuel is the loop-iteration/call budget per Invoke; 0 disables
	// metering. Compiled code checks fuel at loop back-edges and calls,
	// the standard places a preemption-safe compiler inserts them.
	Fuel int64

	fuel  int64
	depth int

	// arena backs frame locals and frames holds one frame per call
	// depth, so calls do not allocate.
	arena  []uint32
	sp     int
	frames [MaxCallDepth]frame
}

// MaxCallDepth bounds graft recursion.
const MaxCallDepth = 256

// Compile lowers prog for execution against m under cfg.
func Compile(p *gel.Program, m *mem.Memory, cfg mem.Config) (*Prog, error) {
	np := &Prog{
		byName: make(map[string]int, len(p.Funcs)),
		mem:    m,
		cfg:    cfg,
		arena:  make([]uint32, 4096),
	}
	// Two passes so calls can reference functions declared later.
	for i, fd := range p.Funcs {
		np.funcs = append(np.funcs, &compiledFunc{
			name:    fd.Name,
			nargs:   len(fd.Params),
			nlocals: fd.NLocals,
		})
		np.byName[fd.Name] = i
	}
	for i, fd := range p.Funcs {
		cc := &codegen{p: np}
		body, err := cc.block(fd.Body)
		if err != nil {
			return nil, err
		}
		np.funcs[i].body = body
	}
	return np, nil
}

// MustCompile compiles a known-good program, panicking on error.
func MustCompile(p *gel.Program, m *mem.Memory, cfg mem.Config) *Prog {
	np, err := Compile(p, m, cfg)
	if err != nil {
		panic(err)
	}
	return np
}

// Memory returns the linear memory the program is bound to.
func (p *Prog) Memory() *mem.Memory { return p.mem }

// Invoke runs the named function. Traps surface as *mem.Trap errors.
func (p *Prog) Invoke(entry string, args ...uint32) (uint32, error) {
	idx, ok := p.byName[entry]
	if !ok {
		return 0, fmt.Errorf("native: no function %q", entry)
	}
	return p.invoke(idx, args)
}

// Direct returns a pre-resolved entry point (the tech.DirectCaller fast
// path); hook points that invoke a graft in a hot loop use it to skip the
// per-call name lookup.
func (p *Prog) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	idx, ok := p.byName[entry]
	if !ok {
		return nil, false
	}
	return func(args []uint32) (uint32, error) { return p.invoke(idx, args) }, true
}

// invoke is the entry body Invoke and Direct share.
func (p *Prog) invoke(idx int, args []uint32) (result uint32, err error) {
	f := p.funcs[idx]
	if len(args) != f.nargs {
		return 0, fmt.Errorf("native: %q takes %d args, got %d", f.name, f.nargs, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*mem.Trap); ok {
				err = t
				p.sp = 0
				p.depth = 0
				return
			}
			panic(r)
		}
	}()
	p.fuel = p.Fuel
	p.depth = 0
	p.sp = 0
	return p.call(idx, args), nil
}

// FuelUsed reports the loop-iteration/call budget consumed by the most
// recent invocation (0 when unmetered — compiled code only burns fuel
// when a budget is set). Must not race a running invocation.
func (p *Prog) FuelUsed() int64 {
	if p.Fuel <= 0 {
		return 0
	}
	used := p.Fuel - p.fuel
	if used > p.Fuel {
		used = p.Fuel // fuel trap leaves the counter at -1
	}
	if used < 0 {
		used = 0
	}
	return used
}

func (p *Prog) call(idx int, args []uint32) uint32 {
	p.depth++
	if p.depth > MaxCallDepth {
		mem.Throw(mem.TrapStackOverflow, 0)
	}
	f := p.funcs[idx]
	base := p.sp
	if base+f.nlocals > len(p.arena) {
		grown := make([]uint32, max(len(p.arena)*2, base+f.nlocals))
		copy(grown, p.arena)
		p.arena = grown
	}
	locals := p.arena[base : base+f.nlocals]
	for i := range locals {
		locals[i] = 0
	}
	copy(locals, args)
	p.sp = base + f.nlocals

	fr := &p.frames[p.depth-1]
	fr.locals, fr.ret = locals, 0
	f.body(fr)

	p.sp = base
	p.depth--
	return fr.ret
}

func (p *Prog) burn() {
	if p.Fuel > 0 {
		p.fuel--
		if p.fuel < 0 {
			mem.Throw(mem.TrapFuel, 0)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
