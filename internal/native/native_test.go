package native

import (
	"errors"
	"testing"

	"graftlab/internal/aot"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
	"graftlab/internal/vm"
)

func compileSrc(t *testing.T, src string, cfg mem.Config) *aot.Prog {
	t.Helper()
	prog, err := gel.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	np, err := Compile(prog, mem.New(1<<13), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return np
}

var allPolicies = []mem.Config{
	{Policy: mem.PolicyUnsafe},
	{Policy: mem.PolicyChecked},
	{Policy: mem.PolicyChecked, NilCheck: true},
	{Policy: mem.PolicySandbox},
	{Policy: mem.PolicySandbox, ReadProtect: true},
}

func TestBasicEvaluation(t *testing.T) {
	p := compileSrc(t, `func main(a, b) { return (a + b) * 2; }`, mem.Config{})
	got, err := p.Invoke("main", 3, 4)
	if err != nil || got != 14 {
		t.Fatalf("main = %d, %v", got, err)
	}
}

func TestDeepCallsGrowArena(t *testing.T) {
	// Each frame has many locals, forcing arena growth under recursion.
	src := `
	func f(n) {
		var a = 1; var b = 2; var c = 3; var d = 4;
		var e = 5; var g = 6; var h = 7; var i = 8;
		if (n == 0) { return a + b + c + d + e + g + h + i; }
		return f(n - 1);
	}
	func main() { return f(200); }`
	p := compileSrc(t, src, mem.Config{})
	got, err := p.Invoke("main")
	if err != nil || got != 36 {
		t.Fatalf("main = %d, %v", got, err)
	}
}

func TestRecursionDepthLimit(t *testing.T) {
	p := compileSrc(t, `func f(n) { if (n == 0) { return 0; } return f(n - 1) + 1; }
	func main(n) { return f(n); }`, mem.Config{})
	_, err := p.Invoke("main", 1<<20)
	var trap *mem.Trap
	if !errors.As(err, &trap) || trap.Kind != mem.TrapStackOverflow {
		t.Fatalf("err = %v", err)
	}
	// The trap must unwind the frame arena and the depth counter: a
	// bounded call right after it runs to completion.
	if got, err := p.Invoke("main", 100); err != nil || got != 100 {
		t.Fatalf("after trap: %d, %v", got, err)
	}
	if _, err := p.Invoke("main", 1<<20); !errors.As(err, &trap) || trap.Kind != mem.TrapStackOverflow {
		t.Fatalf("second overflow = %v, expected same trap", err)
	}
}

func TestLocalsZeroedBetweenCalls(t *testing.T) {
	// A function that reads an uninitialized-looking local pattern: the
	// compiler guarantees locals start at 0 every call, even though the
	// arena is reused.
	src := `
	func leak(set) {
		var x = 0;
		if (set) { x = 99; }
		return x;
	}
	func main(set) { return leak(set); }`
	p := compileSrc(t, src, mem.Config{})
	if got, _ := p.Invoke("main", 1); got != 99 {
		t.Fatalf("first = %d", got)
	}
	if got, _ := p.Invoke("main", 0); got != 0 {
		t.Fatalf("arena leaked stale local: %d", got)
	}
}

func TestPolicySpecializationCheckedVsSandbox(t *testing.T) {
	src := `func main(a) { st32(a, 7); return ld32(a % 4096 / 4 * 4); }`
	checked := compileSrc(t, src, mem.Config{Policy: mem.PolicyChecked})
	if _, err := checked.Invoke("main", 999999); err == nil {
		t.Error("checked store out of range accepted")
	}
	sandbox := compileSrc(t, src, mem.Config{Policy: mem.PolicySandbox})
	if _, err := sandbox.Invoke("main", 999999); err != nil {
		t.Errorf("sandbox store should be masked, got %v", err)
	}
}

// TestEveryAccessKeepsItsCheck: the runtime-codegen classes measure a
// check per access, so Compile must not elide any — not even the ones
// aot.New's interval analysis proves for the same module.
func TestEveryAccessKeepsItsCheck(t *testing.T) {
	src := `func main(a) {
		var i = 0; var s = 0;
		while (i < 100) { s = s + ld32((i % 100) * 4 + 4096); st8((i % 100) + 4096, s); i = i + 1; }
		return s;
	}`
	prog := gel.MustParse(src)
	mod, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	proven, err := aot.New(mod, mem.New(1<<13), mem.Config{Policy: mem.PolicyChecked})
	if err != nil {
		t.Fatal(err)
	}
	if st := proven.VerifyStats(); st.ProvenLoads == 0 || st.ProvenStores == 0 {
		t.Fatalf("fixture no longer provable: %+v", st)
	}
	for _, cfg := range allPolicies {
		st := compileSrc(t, src, cfg).VerifyStats()
		if st.Loads != 1 || st.Stores != 1 || st.ProvenLoads != 0 || st.ProvenStores != 0 {
			t.Errorf("%+v: stats %+v, want one load and one store, none proven", cfg, st)
		}
	}
}

func TestThreeArgCallPath(t *testing.T) {
	src := `
	func g(a, b, c) { return a * 100 + b * 10 + c; }
	func main() { return g(1, 2, 3); }`
	p := compileSrc(t, src, mem.Config{})
	if got, _ := p.Invoke("main"); got != 123 {
		t.Fatalf("got %d", got)
	}
}

// TestFuelChargedAtLoopsAndCalls pins the block-granular fuel model:
// every basic block charges its bytecode instruction count on entry, so
// fuel accrues at each loop iteration and each call, and the budget at
// which a run first completes is the bytecode engines' exactly. The
// prologue always runs, so FuelUsed is nonzero even when unmetered.
func TestFuelChargedAtLoopsAndCalls(t *testing.T) {
	src := `
	func leaf() { return 1; }
	func main(n) {
		var i = 0;
		while (i < n) { i = i + leaf(); }
		return i;
	}`
	prog := gel.MustParse(src)
	mod, err := compile.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	completes := func(fuel int64, n uint32) bool {
		p := compileSrc(t, src, mem.Config{})
		p.Fuel = fuel
		got, err := p.Invoke("main", n)
		var trap *mem.Trap
		if err != nil && (!errors.As(err, &trap) || trap.Kind != mem.TrapFuel) {
			t.Fatalf("fuel %d: err = %v", fuel, err)
		}
		if err == nil && got != n {
			t.Fatalf("fuel %d: main(%d) = %d", fuel, n, got)
		}
		return err == nil
	}
	cliff := func(n uint32) int64 {
		lo, hi := int64(1), int64(1<<20)
		for lo < hi {
			if mid := (lo + hi) / 2; completes(mid, n) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	c40, c60 := cliff(40), cliff(60)
	// Twenty more iterations cost twenty more loop blocks and calls.
	if per := (c60 - c40) / 20; per <= 0 || c40+20*per != c60 {
		t.Fatalf("cliffs %d (n=40) and %d (n=60) are not linear in iterations", c40, c60)
	}

	ref, err := vm.New(mod, mem.New(1<<13), mem.Config{Policy: mem.PolicyChecked})
	if err != nil {
		t.Fatal(err)
	}
	ref.Fuel = c40
	if _, err := ref.Invoke("main", 40); err != nil {
		t.Fatalf("baseline VM at the codegen cliff %d: %v", c40, err)
	}
	ref.Fuel = c40 - 1
	if _, err := ref.Invoke("main", 40); err == nil {
		t.Fatalf("baseline VM completes below the codegen cliff %d", c40)
	}

	p := compileSrc(t, src, mem.Config{})
	if _, err := p.Invoke("main", 40); err != nil {
		t.Fatal(err)
	}
	if used := p.FuelUsed(); used != c40 {
		t.Fatalf("unmetered FuelUsed = %d, want the cliff %d", used, c40)
	}
}

func TestInvokeValidation(t *testing.T) {
	p := compileSrc(t, `func main(a) { return a; }`, mem.Config{})
	if _, err := p.Invoke("nope"); err == nil {
		t.Error("missing entry accepted")
	}
	if _, err := p.Invoke("main"); err == nil {
		t.Error("wrong arity accepted")
	}
	if p.Memory() == nil {
		t.Error("Memory() nil")
	}
}

func TestLd8St8Policies(t *testing.T) {
	src := `func main(a, v) { st8(a, v); return ld8(a); }`
	for _, cfg := range allPolicies {
		p := compileSrc(t, src, cfg)
		got, err := p.Invoke("main", 4200, 200)
		if err != nil || got != 200 {
			t.Errorf("%+v: got %d, %v", cfg, got, err)
		}
	}
}

// TestAllExpressionFormsUnderEveryPolicy drives one program through every
// operator, builtin, and statement form under each memory policy, so the
// policy-specialized closure emitters are all exercised.
func TestAllExpressionFormsUnderEveryPolicy(t *testing.T) {
	src := `
	func callee0() { return 7; }
	func callee1(a) { return a + 1; }
	func callee2(a, b) { return a * b; }
	func callee4(a, b, c, d) { return a ^ b ^ c ^ d; }

	func main(a, b) {
		var r = 0;
		// every binary operator
		r = r + (a + b) + (a - b) + (a * b);
		if (b != 0) { r = r + a / b + a % b; }
		r = r + (a & b) + (a | b) + (a ^ b);
		r = r + (a << 3) + (a >> 2);
		r = r + (a == b) + (a != b) + (a < b) + (a <= b) + (a > b) + (a >= b);
		r = r + (a && b) + (a || b);
		// unary
		r = r + (-a) + (!a) + (~a);
		// builtins, every arity/policy path
		st32(0x2000, r);
		st8(0x2100, r);
		r = r + ld32(0x2000) + ld8(0x2100);
		r = r + rotl(a, 5) + rotr(b, 3) + min(a, b) + max(a, b) + memsize();
		// calls of each specialized arity
		r = r + callee0() + callee1(a) + callee2(a, b) + callee4(a, b, 1, 2);
		// control-flow statements
		var i = 0;
		while (i < 4) {
			i = i + 1;
			if (i == 2) { continue; }
			if (i == 3) { break; }
		}
		{ var shadow = 1; r = r + shadow; }
		if (r == 0) { return 1; } else if (r == 1) { return 2; }
		return r;
	}`
	prog, err := gel.ParseAndCheck(src)
	if err != nil {
		t.Fatal(err)
	}
	var want uint32
	for i, cfg := range allPolicies {
		p, err := Compile(prog, mem.New(1<<15), cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		got, err := p.Invoke("main", 0xDEAD, 13)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("%+v: got %d, want %d", cfg, got, want)
		}
	}
}

func TestDirectFastPath(t *testing.T) {
	p := compileSrc(t, `func main(a) { return a * 3; }`, mem.Config{})
	fn, ok := p.Direct("main")
	if !ok {
		t.Fatal("Direct failed to resolve")
	}
	if _, ok := p.Direct("missing"); ok {
		t.Fatal("Direct resolved a missing entry")
	}
	args := []uint32{14}
	v, err := fn(args)
	if err != nil || v != 42 {
		t.Fatalf("direct call = %d, %v", v, err)
	}
	if _, err := fn([]uint32{1, 2}); err == nil {
		t.Fatal("wrong arity accepted through Direct")
	}
	// Traps recover through the direct path too.
	pt := compileSrc(t, `func main(a) { return 1 / a; }`, mem.Config{})
	dt, _ := pt.Direct("main")
	if _, err := dt([]uint32{0}); err == nil {
		t.Fatal("trap not surfaced through Direct")
	}
	if v, err := dt([]uint32{1}); err != nil || v != 1 {
		t.Fatalf("post-trap direct call = %d, %v", v, err)
	}
}

// TestCompileRejectsBadProgram: a program the checker would never pass
// (a hand-built call to a builtin that does not exist) is refused at
// load time with an error, not lowered into a closure that panics.
func TestCompileRejectsBadProgram(t *testing.T) {
	badProg := &gel.Program{Funcs: []*gel.FuncDecl{{
		Name: "f", Body: &gel.Block{Stmts: []gel.Stmt{&gel.ExprStmt{X: &gel.Call{Name: "x", Builtin: gel.BuiltinID(99)}}}},
	}}}
	if p, err := Compile(badProg, mem.New(1<<12), mem.Config{}); err == nil {
		t.Fatalf("Compile accepted a call to an unknown builtin: %v", p)
	}
}

func TestUnsafeWildLoadIsBackstopped(t *testing.T) {
	p := compileSrc(t, `func main(a) { return ld8(a) + ld32(a); }`, mem.Config{})
	var trap *mem.Trap
	if _, err := p.Invoke("main", 1<<28); !errors.As(err, &trap) || trap.Kind != mem.TrapOOBLoad {
		t.Fatalf("wild load did not fault: %v", err)
	}
}

func TestSandboxReadProtectLd8(t *testing.T) {
	prog := gel.MustParse(`func main(a) { return ld8(a); }`)
	m := mem.New(1 << 12)
	m.St8U(5, 99)
	p, err := Compile(prog, m, mem.Config{Policy: mem.PolicySandbox, ReadProtect: true})
	if err != nil {
		t.Fatal(err)
	}
	// Address 4096+5 masks to 5.
	if v, err := p.Invoke("main", 4101); err != nil || v != 99 {
		t.Fatalf("masked ld8 = %d, %v", v, err)
	}
}
