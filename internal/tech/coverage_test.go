package tech

import (
	"testing"

	"graftlab/internal/mem"
)

var hipecSum = Source{
	Name: "hsum",
	Hipec: map[string]string{
		"main": `
	movi r1, 0
	movi r2, 1
loop:
	jlt r0, r2, done
	add r1, r1, r2
	addi r2, r2, 1
	jmp loop
done:
	ret r1
`,
	},
}

func TestDomainClassLifecycle(t *testing.T) {
	g, err := Load(Domain, hipecSum, mem.New(1<<12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if v, err := g.Invoke("main", 100); err != nil || v != 5050 {
		t.Fatalf("Invoke = %d, %v", v, err)
	}
	if _, err := g.Invoke("missing"); err == nil {
		t.Error("missing entry accepted")
	}
	if g.Memory() == nil {
		t.Error("Memory nil")
	}
	dc, ok := g.(DirectCaller)
	if !ok {
		t.Fatal("domain graft is not a DirectCaller")
	}
	fn, ok := dc.Direct("main")
	if !ok {
		t.Fatal("Direct failed")
	}
	if v, err := fn([]uint32{10}); err != nil || v != 55 {
		t.Fatalf("direct = %d, %v", v, err)
	}
	if _, ok := dc.Direct("missing"); ok {
		t.Error("Direct resolved missing entry")
	}
}

func TestDomainClassLoadErrors(t *testing.T) {
	if _, err := Load(Domain, Source{Name: "x", GEL: "func main() {}"}, mem.New(1<<12), Options{}); err == nil {
		t.Error("domain load without Hipec accepted")
	}
	bad := Source{Name: "bad", Hipec: map[string]string{"main": "jmp nowhere"}}
	if _, err := Load(Domain, bad, mem.New(1<<12), Options{}); err == nil {
		t.Error("unassemblable program accepted")
	}
}

func TestDomainClassFuel(t *testing.T) {
	spin := Source{Name: "spin", Hipec: map[string]string{"main": "loop:\njmp loop"}}
	g, err := Load(Domain, spin, mem.New(1<<12), Options{Fuel: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Invoke("main"); err == nil {
		t.Fatal("runaway domain graft not preempted")
	}
}

func TestResolveDirectFallback(t *testing.T) {
	// A Graft without DirectCaller uses the generic path.
	g, err := Load(Script, Source{
		Name: "s", Tcl: `proc main {a} { return [expr {$a + 1}] }`,
	}, mem.New(1<<12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn := ResolveDirect(g, "main")
	if v, err := fn([]uint32{41}); err != nil || v != 42 {
		t.Fatalf("fallback = %d, %v", v, err)
	}
	// And a DirectCaller short-circuits.
	g2, err := Load(Domain, hipecSum, mem.New(1<<12), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fn2 := ResolveDirect(g2, "main")
	if v, err := fn2([]uint32{3}); err != nil || v != 6 {
		t.Fatalf("direct = %d, %v", v, err)
	}
	// Unknown entries degrade to the error-returning generic path.
	fn3 := ResolveDirect(g2, "missing")
	if _, err := fn3(nil); err == nil {
		t.Fatal("missing entry succeeded")
	}
}
