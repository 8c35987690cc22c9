package aot

import (
	"graftlab/internal/bytecode"
	"graftlab/internal/mem"
)

// Control-flow emitters: register assignments, block terminators, and
// the compare-and-branch specializations that keep loop back-edges at a
// single indirect call. A conditional branch whose condition is a
// comparison tree is re-specialized from the comparison's operands
// (recorded on the sval when the tree was built), so `i < n` loop heads
// compile to one closure testing two registers — the analogue of the
// optimizing VM's fused xLLCmpJnz superinstruction.

// assign emits `r[dst] = v` with the value's leaf inlined.
func assign(dst int, v sval) stmtFn {
	switch v.k {
	case kConst:
		c := v.c
		return func(r []uint32) { r[dst] = c }
	case kReg:
		src := v.reg
		return func(r []uint32) { r[dst] = r[src] }
	default:
		e := v.e
		return func(r []uint32) { r[dst] = e(r) }
	}
}

// evalDiscard evaluates a pending tree purely for its effects (traps,
// checked loads) — the lowering of a Drop or of dead-but-trapping
// entries below a Ret/Abort.
func evalDiscard(e exprFn) stmtFn {
	return func(r []uint32) { e(r) }
}

// retTerm ends the function, leaving the result where Prog.call reads it.
func retTerm(p *Prog, v sval) func([]uint32) int32 {
	switch v.k {
	case kConst:
		c := v.c
		return func(r []uint32) int32 { p.result = c; return -1 }
	case kReg:
		i := v.reg
		return func(r []uint32) int32 { p.result = r[i]; return -1 }
	default:
		e := v.e
		return func(r []uint32) int32 { p.result = e(r); return -1 }
	}
}

// abortTerm raises the graft's own trap with its code operand.
func abortTerm(v sval, pc int) func([]uint32) int32 {
	switch v.k {
	case kConst:
		c := v.c
		return func(r []uint32) int32 {
			panic(&mem.Trap{Kind: mem.TrapAbort, Code: c, PC: pc})
		}
	case kReg:
		i := v.reg
		return func(r []uint32) int32 {
			panic(&mem.Trap{Kind: mem.TrapAbort, Code: r[i], PC: pc})
		}
	default:
		e := v.e
		return func(r []uint32) int32 {
			panic(&mem.Trap{Kind: mem.TrapAbort, Code: e(r), PC: pc})
		}
	}
}

// condTerm ends a block with "transfer to taken when cond is true (after
// needTrue normalization), else to fall". The caller has already folded
// constant conditions into a static terminator.
func (t *tr) condTerm(cond sval, needTrue bool, taken, fall int32) func([]uint32) int32 {
	if cond.isCmp {
		op := cond.cop
		if !needTrue {
			op = negateCmp(op)
		}
		x, y := *cond.cx, *cond.cy
		// Normalize a pure left operand to the right (with the mirrored
		// comparison) so five shapes cover all combinations. Legal
		// because register reads and constants commute with expression
		// evaluation — trees never write registers.
		if x.k != kExpr && y.k == kExpr {
			x, y = y, x
			op = mirrorCmp(op)
		}
		if x.k == kConst && y.k == kReg {
			x, y = y, x
			op = mirrorCmp(op)
		}
		switch {
		case x.k == kReg && y.k == kReg:
			return cmpRR(op, x.reg, y.reg, taken, fall)
		case x.k == kReg && y.k == kConst:
			return cmpRC(op, x.reg, y.c, taken, fall)
		case x.k == kExpr && y.k == kReg:
			return cmpER(op, x.e, y.reg, taken, fall)
		case x.k == kExpr && y.k == kConst:
			return cmpEC(op, x.e, y.c, taken, fall)
		default: // (E,E); (C,C) was folded when the tree was built
			return cmpEE(op, t.toExpr(x), t.toExpr(y), taken, fall)
		}
	}
	switch cond.k {
	case kReg:
		i := cond.reg
		if needTrue {
			return func(r []uint32) int32 {
				if r[i] != 0 {
					return taken
				}
				return fall
			}
		}
		return func(r []uint32) int32 {
			if r[i] == 0 {
				return taken
			}
			return fall
		}
	default:
		e := cond.e
		if needTrue {
			return func(r []uint32) int32 {
				if e(r) != 0 {
					return taken
				}
				return fall
			}
		}
		return func(r []uint32) int32 {
			if e(r) == 0 {
				return taken
			}
			return fall
		}
	}
}

func cmpRR(op bytecode.Op, xi, yi int, taken, fall int32) func([]uint32) int32 {
	switch op {
	case bytecode.OpEq:
		return func(r []uint32) int32 {
			if r[xi] == r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpNe:
		return func(r []uint32) int32 {
			if r[xi] != r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpLtU:
		return func(r []uint32) int32 {
			if r[xi] < r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpLeU:
		return func(r []uint32) int32 {
			if r[xi] <= r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpGtU:
		return func(r []uint32) int32 {
			if r[xi] > r[yi] {
				return taken
			}
			return fall
		}
	default: // OpGeU
		return func(r []uint32) int32 {
			if r[xi] >= r[yi] {
				return taken
			}
			return fall
		}
	}
}

func cmpRC(op bytecode.Op, xi int, c uint32, taken, fall int32) func([]uint32) int32 {
	switch op {
	case bytecode.OpEq:
		return func(r []uint32) int32 {
			if r[xi] == c {
				return taken
			}
			return fall
		}
	case bytecode.OpNe:
		return func(r []uint32) int32 {
			if r[xi] != c {
				return taken
			}
			return fall
		}
	case bytecode.OpLtU:
		return func(r []uint32) int32 {
			if r[xi] < c {
				return taken
			}
			return fall
		}
	case bytecode.OpLeU:
		return func(r []uint32) int32 {
			if r[xi] <= c {
				return taken
			}
			return fall
		}
	case bytecode.OpGtU:
		return func(r []uint32) int32 {
			if r[xi] > c {
				return taken
			}
			return fall
		}
	default: // OpGeU
		return func(r []uint32) int32 {
			if r[xi] >= c {
				return taken
			}
			return fall
		}
	}
}

func cmpER(op bytecode.Op, x exprFn, yi int, taken, fall int32) func([]uint32) int32 {
	switch op {
	case bytecode.OpEq:
		return func(r []uint32) int32 {
			if x(r) == r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpNe:
		return func(r []uint32) int32 {
			if x(r) != r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpLtU:
		return func(r []uint32) int32 {
			if x(r) < r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpLeU:
		return func(r []uint32) int32 {
			if x(r) <= r[yi] {
				return taken
			}
			return fall
		}
	case bytecode.OpGtU:
		return func(r []uint32) int32 {
			if x(r) > r[yi] {
				return taken
			}
			return fall
		}
	default: // OpGeU
		return func(r []uint32) int32 {
			if x(r) >= r[yi] {
				return taken
			}
			return fall
		}
	}
}

func cmpEC(op bytecode.Op, x exprFn, c uint32, taken, fall int32) func([]uint32) int32 {
	switch op {
	case bytecode.OpEq:
		return func(r []uint32) int32 {
			if x(r) == c {
				return taken
			}
			return fall
		}
	case bytecode.OpNe:
		return func(r []uint32) int32 {
			if x(r) != c {
				return taken
			}
			return fall
		}
	case bytecode.OpLtU:
		return func(r []uint32) int32 {
			if x(r) < c {
				return taken
			}
			return fall
		}
	case bytecode.OpLeU:
		return func(r []uint32) int32 {
			if x(r) <= c {
				return taken
			}
			return fall
		}
	case bytecode.OpGtU:
		return func(r []uint32) int32 {
			if x(r) > c {
				return taken
			}
			return fall
		}
	default: // OpGeU
		return func(r []uint32) int32 {
			if x(r) >= c {
				return taken
			}
			return fall
		}
	}
}

func cmpEE(op bytecode.Op, x, y exprFn, taken, fall int32) func([]uint32) int32 {
	switch op {
	case bytecode.OpEq:
		return func(r []uint32) int32 {
			if x(r) == y(r) {
				return taken
			}
			return fall
		}
	case bytecode.OpNe:
		return func(r []uint32) int32 {
			if x(r) != y(r) {
				return taken
			}
			return fall
		}
	case bytecode.OpLtU:
		return func(r []uint32) int32 {
			if x(r) < y(r) {
				return taken
			}
			return fall
		}
	case bytecode.OpLeU:
		return func(r []uint32) int32 {
			if x(r) <= y(r) {
				return taken
			}
			return fall
		}
	case bytecode.OpGtU:
		return func(r []uint32) int32 {
			if x(r) > y(r) {
				return taken
			}
			return fall
		}
	default: // OpGeU
		return func(r []uint32) int32 {
			if x(r) >= y(r) {
				return taken
			}
			return fall
		}
	}
}

// makeBlock assembles a basic block's closure: charge fuel, run the
// statements, run the terminator — or, when term is nil, return the
// static successor next inline, so loop back-edges and fallthroughs pay
// no extra indirect call. Short statement chains are unrolled so
// straight-line blocks pay no slice-iteration overhead.
func makeBlock(p *Prog, bm *blockMeta, stmts []stmtFn, term func([]uint32) int32, next int32) blockFn {
	if term == nil {
		switch len(stmts) {
		case 0:
			return func(r []uint32) int32 { p.burn(bm); return next }
		case 1:
			s0 := stmts[0]
			return func(r []uint32) int32 { p.burn(bm); s0(r); return next }
		case 2:
			s0, s1 := stmts[0], stmts[1]
			return func(r []uint32) int32 { p.burn(bm); s0(r); s1(r); return next }
		default:
			ss := append([]stmtFn(nil), stmts...)
			return func(r []uint32) int32 {
				p.burn(bm)
				for _, s := range ss {
					s(r)
				}
				return next
			}
		}
	}
	switch len(stmts) {
	case 0:
		return func(r []uint32) int32 { p.burn(bm); return term(r) }
	case 1:
		s0 := stmts[0]
		return func(r []uint32) int32 { p.burn(bm); s0(r); return term(r) }
	case 2:
		s0, s1 := stmts[0], stmts[1]
		return func(r []uint32) int32 { p.burn(bm); s0(r); s1(r); return term(r) }
	case 3:
		s0, s1, s2 := stmts[0], stmts[1], stmts[2]
		return func(r []uint32) int32 { p.burn(bm); s0(r); s1(r); s2(r); return term(r) }
	case 4:
		s0, s1, s2, s3 := stmts[0], stmts[1], stmts[2], stmts[3]
		return func(r []uint32) int32 {
			p.burn(bm)
			s0(r)
			s1(r)
			s2(r)
			s3(r)
			return term(r)
		}
	default:
		ss := append([]stmtFn(nil), stmts...)
		return func(r []uint32) int32 {
			p.burn(bm)
			for _, s := range ss {
				s(r)
			}
			return term(r)
		}
	}
}
