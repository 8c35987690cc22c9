package tech

import (
	"strings"
	"testing"

	"graftlab/internal/mem"
)

func TestSourceDigestDistinguishesRepresentations(t *testing.T) {
	base := Source{Name: "g", GEL: "func f() { return 1; }", Tcl: "proc f {} { return 1 }"}
	d0 := SourceDigest(base)
	if d0 != SourceDigest(base) {
		t.Fatal("digest is not deterministic")
	}
	if len(d0) != 64 {
		t.Fatalf("digest length %d, want 64 hex chars", len(d0))
	}

	gel := base
	gel.GEL = "func f() { return 2; }"
	if SourceDigest(gel) == d0 {
		t.Error("GEL change did not change the digest")
	}
	tcl := base
	tcl.Tcl = "proc f {} { return 2 }"
	if SourceDigest(tcl) == d0 {
		t.Error("Tcl change did not change the digest")
	}
	name := base
	name.Name = "h"
	if SourceDigest(name) == d0 {
		t.Error("name change did not change the digest")
	}
	hip := base
	hip.Hipec = map[string]string{"f": "movi r1, 1\nret r1"}
	if SourceDigest(hip) == d0 {
		t.Error("HiPEC rendering did not change the digest")
	}
	comp := base
	comp.Compiled = func(cfg mem.Config, m *mem.Memory) (Graft, error) { return nil, nil }
	if SourceDigest(comp) == d0 {
		t.Error("compiled presence did not change the digest")
	}
}

func TestSourceDigestFieldBoundaries(t *testing.T) {
	// Length prefixing: content sliding between adjacent fields must not
	// collide.
	a := Source{Name: "ab", GEL: "c"}
	b := Source{Name: "a", GEL: "bc"}
	if SourceDigest(a) == SourceDigest(b) {
		t.Error("field boundary collision between name and GEL")
	}
}

func TestSourceDigestHipecOrderIndependent(t *testing.T) {
	a := Source{Name: "g", Hipec: map[string]string{"x": "1", "y": "2"}}
	b := Source{Name: "g", Hipec: map[string]string{"y": "2", "x": "1"}}
	if SourceDigest(a) != SourceDigest(b) {
		t.Error("HiPEC map iteration order leaked into the digest")
	}
}

func TestArtifactRefAndLoad(t *testing.T) {
	src := Source{Name: "adder", GEL: "func add(a, b) { return a + b; }"}
	a := NewArtifact(src, 3)
	if a.Digest != SourceDigest(src) {
		t.Fatal("NewArtifact did not compute the digest")
	}
	ref := a.Ref()
	if !strings.HasPrefix(ref, "adder@v3 (") || !strings.Contains(ref, a.Digest[:12]) {
		t.Fatalf("Ref() = %q", ref)
	}

	g, err := Load(Bytecode, a.Source, mem.New(1<<10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	v, err := g.Invoke("add", 2, 40)
	if err != nil || v != 42 {
		t.Fatalf("add = %d, %v", v, err)
	}
}
