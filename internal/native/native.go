// Package native is the runtime-codegen technology class: a checked GEL
// program is compiled to bytecode and lowered at load time to
// closure-threaded Go by internal/aot's translator, with no interval
// proof, so every memory access keeps the check or mask its policy
// pays for. It stands in for three of the paper's technologies,
// depending on the memory policy baked in at load time:
//
//   - mem.PolicyUnsafe:  unsafe C linked into the kernel (only the bounds
//     backstop that models the crash)
//   - mem.PolicyChecked: Modula-3 (bounds checks; optional explicit NIL
//     checks, reproducing the paper's Linux-vs-Solaris compiler split)
//   - mem.PolicySandbox: Omniware-style SFI (store masking; optional load
//     masking, reproducing the "no read protection" beta caveat)
//
// The policy is specialized into the emitted closures, so the only
// difference between the modes at run time is the check instructions
// themselves — exactly the quantity the paper is measuring. Fuel is
// charged per basic block from the same CFG the bytecode engines meter,
// so fuel cliffs land on exactly the bytecode engines' budgets.
package native

import (
	"graftlab/internal/aot"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
)

// Compile lowers p for execution against m under cfg: GEL to bytecode,
// then aot.NewUnproven. Callers that already hold the compiled module
// (tech's loader shares one across bytecode, AOT and these classes) call
// aot.NewUnproven directly.
func Compile(p *gel.Program, m *mem.Memory, cfg mem.Config) (*aot.Prog, error) {
	mod, err := compile.Compile(p)
	if err != nil {
		return nil, err
	}
	return aot.NewUnproven(mod, m, cfg)
}
