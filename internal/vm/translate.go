package vm

// The translation pass: verify → decode → fuse → specialize (see opt.go for
// the execution side). translate runs once per function at load time; its
// cost is amortized over every subsequent Invoke, mirroring how eBPF-style
// runtimes verify and translate a program once at load.

import (
	"fmt"

	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
)

// ldOff selects the policy offset (0=U, 1=N, 2=S) for load opcodes. The
// checked policy without nil checks has the same observable behavior as the
// unsafe backstop (bounds trap with identical kind/addr/pc), so both map to
// the U variant; sandbox loads mask only under ReadProtect, mirroring the
// Omniware beta the paper measured.
func ldOff(cfg mem.Config) xop {
	if cfg.Policy == mem.PolicyChecked && cfg.NilCheck {
		return 1
	}
	if cfg.Policy == mem.PolicySandbox && cfg.ReadProtect {
		return 2
	}
	return 0
}

// stOff selects the policy offset for store opcodes; sandbox stores always
// mask.
func stOff(cfg mem.Config) xop {
	if cfg.Policy == mem.PolicyChecked && cfg.NilCheck {
		return 1
	}
	if cfg.Policy == mem.PolicySandbox {
		return 2
	}
	return 0
}

func isBin(op bytecode.Op) bool { return op >= bytecode.OpAdd && op <= bytecode.OpGeU }
func isCmp(op bytecode.Op) bool { return op >= bytecode.OpEq && op <= bytecode.OpGeU }

// binTraps reports whether a binop can raise a trap of its own (div by
// zero); such ops may only appear as the trap-pc-carrying component of a
// superinstruction.
func binTraps(op bytecode.Op) bool { return op == bytecode.OpDivU || op == bytecode.OpRemU }

// hasTarget reports whether op carries a branch target needing remapping
// from original pc to translated index.
func hasTarget(op xop) bool {
	switch op {
	case xJmp, xJz, xJnz,
		xCmpJz, xCmpJnz, xLCmpJz, xLCmpJnz,
		xLCCmpJz, xLCCmpJnz, xLLCmpJz, xLLCmpJnz,
		xEqzJz, xEqzJnz:
		return true
	}
	return false
}

// translate lowers one verified function. Fusion and fuel assignment both
// rest on the basic-block structure: no superinstruction crosses a block
// boundary, so every leader starts a translated instruction, and the
// block's instruction count is charged on its first translated instruction.
func translate(mod *bytecode.Module, f *bytecode.Func, depth []int, cfg mem.Config, oc OptConfig) (xfunc, error) {
	leaders := bytecode.Leaders(f)
	costs := bytecode.BlockCosts(f, leaders)
	code := f.Code
	xcode := make([]xinstr, 0, len(code))
	// x4pc maps original pc -> translated index for pcs that begin an
	// xinstr; -1 for pcs swallowed into a superinstruction.
	x4pc := make([]int32, len(code))
	for i := range x4pc {
		x4pc[i] = -1
	}
	for i := 0; i < len(code); {
		var xin xinstr
		n := 0
		if !oc.NoFuse {
			xin, n = fuse(code, i, leaders, cfg)
		}
		if n == 0 {
			xin = lower1(code[i], cfg)
			n = 1
		}
		xin.n = uint8(n)
		// The trapping component of a fused group is its last instruction,
		// except in the BinSet family where a trailing local.set follows
		// the (possibly trapping) binop; the recorded pc is the trap pc.
		xin.pc = int32(i + n - 1)
		switch xin.op {
		case xBinSet, xLBinSet, xCBinSet, xLLBinSet, xLCBinSet,
			xLd32BinU, xLd32BinN, xLd32BinS:
			xin.pc--
		}
		x4pc[i] = int32(len(xcode))
		xcode = append(xcode, xin)
		i += n
	}

	if oc.PerInstrFuel {
		for j := range xcode {
			xcode[j].cost = uint32(xcode[j].n)
		}
	} else {
		for pc, isL := range leaders {
			if !isL {
				continue
			}
			xi := x4pc[pc]
			if xi < 0 {
				return xfunc{}, fmt.Errorf("vm: translate %s: leader %d swallowed by fusion", f.Name, pc)
			}
			xcode[xi].cost = costs[pc]
		}
	}

	for j := range xcode {
		if !hasTarget(xcode[j].op) {
			continue
		}
		t := xcode[j].t
		if t < 0 || int(t) >= len(code) || x4pc[t] < 0 {
			return xfunc{}, fmt.Errorf("vm: translate %s: branch target %d does not start an instruction", f.Name, t)
		}
		xcode[j].t = x4pc[t]
	}

	return xfunc{
		name:     f.Name,
		nargs:    f.NArgs,
		nlocals:  f.NLocals,
		maxStack: bytecode.MaxStack(mod, f, depth),
		code:     xcode,
		lines:    f.Lines,
	}, nil
}

// lower1 translates a single instruction 1:1, specializing memory opcodes
// to the policy.
func lower1(in bytecode.Instr, cfg mem.Config) xinstr {
	switch {
	case in.Op == bytecode.OpLd32:
		return xinstr{op: xLd32U + ldOff(cfg)}
	case in.Op == bytecode.OpLd8:
		return xinstr{op: xLd8U + ldOff(cfg)}
	case in.Op == bytecode.OpSt32:
		return xinstr{op: xSt32U + stOff(cfg)}
	case in.Op == bytecode.OpSt8:
		return xinstr{op: xSt8U + stOff(cfg)}
	case isBin(in.Op):
		return xinstr{op: xBin2, sub: in.Op}
	case in.Op == bytecode.OpJmp, in.Op == bytecode.OpJz, in.Op == bytecode.OpJnz:
		return xinstr{op: xop(in.Op), t: int32(in.A)}
	default:
		return xinstr{op: xop(in.Op), a: in.A}
	}
}

// fuse tries to match a superinstruction starting at code[i]. It returns
// the fused instruction and the number of originals it retires, or n == 0
// when nothing matches. A pattern only fires when all of its interior
// instructions stay inside i's basic block (no interior leaders), so jump
// targets always begin a translated instruction. Patterns are matched
// longest-first at each position.
func fuse(code []bytecode.Instr, i int, leaders []bool, cfg mem.Config) (xinstr, int) {
	in := code[i]
	// within reports whether a pattern of length l fits in the block.
	within := func(l int) bool {
		if i+l > len(code) {
			return false
		}
		for j := i + 1; j < i+l; j++ {
			if leaders[j] {
				return false
			}
		}
		return true
	}
	op := func(k int) bytecode.Op { return code[i+k].Op }
	arg := func(k int) uint32 { return code[i+k].A }
	branchOff := func(o bytecode.Op) xop { // xJz-family selector: +0 for Jz, +1 for Jnz
		if o == bytecode.OpJnz {
			return 1
		}
		return 0
	}

	switch {
	case in.Op == bytecode.OpLocalGet:
		switch {
		// local.get b; local.get i; const s; mul; add; ld32  (indexed load)
		case within(6) && op(1) == bytecode.OpLocalGet && op(2) == bytecode.OpConst &&
			op(3) == bytecode.OpMul && op(4) == bytecode.OpAdd && op(5) == bytecode.OpLd32:
			return xinstr{op: xLdLI32U + ldOff(cfg), a: in.A, b: arg(1), c: arg(2)}, 6
		// local.get; local.get; <binop>; local.set
		case within(4) && op(1) == bytecode.OpLocalGet && isBin(op(2)) && op(3) == bytecode.OpLocalSet:
			return xinstr{op: xLLBinSet, sub: op(2), a: in.A, b: arg(1), c: arg(3)}, 4
		// local.get; const; <binop>; local.set
		case within(4) && op(1) == bytecode.OpConst && isBin(op(2)) && op(3) == bytecode.OpLocalSet:
			return xinstr{op: xLCBinSet, sub: op(2), a: in.A, b: arg(1), c: arg(3)}, 4
		// local.get; <binop>; local.set
		case within(3) && isBin(op(1)) && op(2) == bytecode.OpLocalSet:
			return xinstr{op: xLBinSet, sub: op(1), a: in.A, b: arg(2)}, 3
		// local.get; const; <cmp>; jz/jnz
		case within(4) && op(1) == bytecode.OpConst && isCmp(op(2)) &&
			(op(3) == bytecode.OpJz || op(3) == bytecode.OpJnz):
			return xinstr{op: xLCCmpJz + branchOff(op(3)), sub: op(2), a: in.A, b: arg(1), t: int32(arg(3))}, 4
		// local.get; local.get; <cmp>; jz/jnz
		case within(4) && op(1) == bytecode.OpLocalGet && isCmp(op(2)) &&
			(op(3) == bytecode.OpJz || op(3) == bytecode.OpJnz):
			return xinstr{op: xLLCmpJz + branchOff(op(3)), sub: op(2), a: in.A, b: arg(1), t: int32(arg(3))}, 4
		// local.get; <cmp>; jz/jnz
		case within(3) && isCmp(op(1)) && (op(2) == bytecode.OpJz || op(2) == bytecode.OpJnz):
			return xinstr{op: xLCmpJz + branchOff(op(2)), sub: op(1), a: in.A, t: int32(arg(2))}, 3
		// local.get; local.get; <binop>
		case within(3) && op(1) == bytecode.OpLocalGet && isBin(op(2)):
			return xinstr{op: xLLBin, sub: op(2), a: in.A, b: arg(1)}, 3
		// local.get; const; <binop>
		case within(3) && op(1) == bytecode.OpConst && isBin(op(2)):
			return xinstr{op: xLCBin, sub: op(2), a: in.A, b: arg(1)}, 3
		// local.get; ld32
		case within(2) && op(1) == bytecode.OpLd32:
			return xinstr{op: xLdL32U + ldOff(cfg), a: in.A}, 2
		// local.get; st32 (the local is the stored value)
		case within(2) && op(1) == bytecode.OpSt32:
			return xinstr{op: xStL32U + stOff(cfg), a: in.A}, 2
		// local.get; local.set
		case within(2) && op(1) == bytecode.OpLocalSet:
			return xinstr{op: xMov, a: in.A, b: arg(1)}, 2
		// local.get; <binop>
		case within(2) && isBin(op(1)):
			return xinstr{op: xLBin, sub: op(1), a: in.A}, 2
		// local.get; local.get — pair push, weakest pattern at this position
		case within(2) && op(1) == bytecode.OpLocalGet:
			return xinstr{op: xLLPush, a: in.A, b: arg(1)}, 2
		}

	case in.Op == bytecode.OpConst:
		switch {
		// const k; local.get i; const s; mul; add; ld32  (indexed load)
		case within(6) && op(1) == bytecode.OpLocalGet && op(2) == bytecode.OpConst &&
			op(3) == bytecode.OpMul && op(4) == bytecode.OpAdd && op(5) == bytecode.OpLd32:
			return xinstr{op: xLdCI32U + ldOff(cfg), a: in.A, b: arg(1), c: arg(2)}, 6
		// const; <binop>; local.set
		case within(3) && isBin(op(1)) && op(2) == bytecode.OpLocalSet:
			return xinstr{op: xCBinSet, sub: op(1), a: in.A, b: arg(2)}, 3
		// const; <binop>; <binop> — the "+k*scale" address/arith tails
		case within(3) && isBin(op(1)) && !binTraps(op(1)) && isBin(op(2)):
			return xinstr{op: xCBB, sub: op(1), a: in.A, c: uint32(op(2))}, 3
		// const; ld32
		case within(2) && op(1) == bytecode.OpLd32:
			return xinstr{op: xLdC32U + ldOff(cfg), a: in.A}, 2
		// const; st32 (the constant is the stored value)
		case within(2) && op(1) == bytecode.OpSt32:
			return xinstr{op: xStC32U + stOff(cfg), a: in.A}, 2
		// const; local.set
		case within(2) && op(1) == bytecode.OpLocalSet:
			return xinstr{op: xSetC, a: in.A, b: arg(1)}, 2
		// const; <binop>
		case within(2) && isBin(op(1)):
			return xinstr{op: xCBin, sub: op(1), a: in.A}, 2
		}

	case isBin(in.Op):
		// <cmp>; jz/jnz
		if isCmp(in.Op) && within(2) && (op(1) == bytecode.OpJz || op(1) == bytecode.OpJnz) {
			return xinstr{op: xCmpJz + branchOff(op(1)), sub: in.Op, t: int32(arg(1))}, 2
		}
		// <binop>; local.set
		if within(2) && op(1) == bytecode.OpLocalSet {
			return xinstr{op: xBinSet, sub: in.Op, a: arg(1)}, 2
		}
		// <binop>; ld32 — fused address computation
		if within(2) && op(1) == bytecode.OpLd32 && !binTraps(in.Op) {
			return xinstr{op: xBinLd32U + ldOff(cfg), sub: in.Op}, 2
		}

	case in.Op == bytecode.OpLd32:
		// ld32; <binop> — fused load+use (binop must be non-trapping so
		// the recorded pc, the load's, is the only possible trap pc)
		if within(2) && isBin(op(1)) && !binTraps(op(1)) {
			return xinstr{op: xLd32BinU + ldOff(cfg), sub: op(1)}, 2
		}

	case in.Op == bytecode.OpEqz:
		// eqz; jz == jump-if-nonzero; eqz; jnz == jump-if-zero
		if within(2) && op(1) == bytecode.OpJz {
			return xinstr{op: xEqzJz, t: int32(arg(1))}, 2
		}
		if within(2) && op(1) == bytecode.OpJnz {
			return xinstr{op: xEqzJnz, t: int32(arg(1))}, 2
		}
	}
	return xinstr{}, 0
}
