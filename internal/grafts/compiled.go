package grafts

import (
	"encoding/binary"
	"fmt"

	"graftlab/internal/mem"
)

// The compiled technology class. The paper did not run one graft binary
// under six systems; it *reimplemented* each graft per technology ("We
// took the standard C implementation ... and modified or reimplemented it
// for each of our test platforms", §5.5). This file and its siblings do
// the same: each graft has hand-written Go implementations whose memory
// accesses carry exactly the checks of the modeled technology, compiled
// by the Go compiler to real machine code. They are the performance-
// faithful representatives of the compiled classes:
//
//	unsafe   — C linked into the kernel: raw accesses. An out-of-range
//	           address dies on Go's own slice check, the analogue of the
//	           kernel crash the unsafe model accepts.
//	checked  — Modula-3: an explicit bounds compare per access (plus an
//	           explicit NIL-page compare in the nilCheck variant, the
//	           Linux-compiler behaviour of §5.4).
//	sandbox  — Omniware SFI: stores masked into the region; loads masked
//	           only in the readProtect variant (the beta the paper
//	           measured had no read protection).
//
// The per-policy duplication below is deliberate: the check cost must be
// compiled into the instruction stream, not branched over at run time,
// or every variant would pay the same dispatch cost and the differences
// being measured would vanish.

// CompiledGraft adapts hand-written Go entry points to the tech.Graft
// invocation protocol. Entries receive the argument slice and return the
// result; traps propagate by panic and are recovered here.
type CompiledGraft struct {
	m       *mem.Memory
	entries map[string]compiledEntry
}

// compiledEntry is one registered entry point.
type compiledEntry struct {
	name  string
	arity int
	fn    func(args []uint32) uint32
}

// NewCompiledGraft builds an empty compiled graft over m.
func NewCompiledGraft(m *mem.Memory) *CompiledGraft {
	return &CompiledGraft{m: m, entries: make(map[string]compiledEntry)}
}

// Register adds an entry point.
func (c *CompiledGraft) Register(name string, arity int, fn func(args []uint32) uint32) {
	c.entries[name] = compiledEntry{name: name, arity: arity, fn: fn}
}

// Memory implements tech.Graft.
func (c *CompiledGraft) Memory() *mem.Memory { return c.m }

// Direct implements tech.DirectCaller: the resolved entry is called with
// only trap recovery between the kernel and the compiled code.
func (c *CompiledGraft) Direct(entry string) (func(args []uint32) (uint32, error), bool) {
	e, ok := c.entries[entry]
	if !ok {
		return nil, false
	}
	return e.invoke, true
}

// Invoke implements tech.Graft.
func (c *CompiledGraft) Invoke(entry string, args ...uint32) (uint32, error) {
	e, ok := c.entries[entry]
	if !ok {
		return 0, fmt.Errorf("compiled: no entry %q", entry)
	}
	return e.invoke(args)
}

// invoke is the entry body Invoke and Direct share.
func (e compiledEntry) invoke(args []uint32) (result uint32, err error) {
	if len(args) != e.arity {
		return 0, fmt.Errorf("compiled: %q takes %d args, got %d", e.name, e.arity, len(args))
	}
	defer func() {
		if r := recover(); r != nil {
			if t, ok := r.(*mem.Trap); ok {
				err = t
				return
			}
			panic(r)
		}
	}()
	return e.fn(args), nil
}

// ---- per-policy access primitives ----
// Each is tiny and inlinable so the check lands in the caller's loop.

func le32(d []byte, a uint32) uint32 {
	return binary.LittleEndian.Uint32(d[a:])
}

func se32(d []byte, a, v uint32) {
	binary.LittleEndian.PutUint32(d[a:], v)
}

// ld32chk is the Modula-3-class load: explicit bounds compare.
func ld32chk(d []byte, a uint32) uint32 {
	if uint64(a)+4 > uint64(len(d)) {
		mem.Throw(mem.TrapOOBLoad, a)
	}
	return binary.LittleEndian.Uint32(d[a:])
}

// st32chk is the Modula-3-class store.
func st32chk(d []byte, a, v uint32) {
	if uint64(a)+4 > uint64(len(d)) {
		mem.Throw(mem.TrapOOBStore, a)
	}
	binary.LittleEndian.PutUint32(d[a:], v)
}

// ld32nil adds the explicit NIL-page compare of the Linux Modula-3
// compiler (§5.4).
func ld32nil(d []byte, a uint32) uint32 {
	if a < mem.NilPageSize {
		mem.Throw(mem.TrapNilDeref, a)
	}
	return ld32chk(d, a)
}

// st32nil is the store counterpart of ld32nil.
func st32nil(d []byte, a, v uint32) {
	if a < mem.NilPageSize {
		mem.Throw(mem.TrapNilDeref, a)
	}
	st32chk(d, a, v)
}

// st32sfi is the Omniware-class store: a single AND masks the address
// into the sandbox.
func st32sfi(d []byte, a, v uint32, mask uint32) {
	binary.LittleEndian.PutUint32(d[a&mask&^3:], v)
}

// ld32sfi is the full-protection SFI load (the §6 "SFI with full
// protection" candidate; the measured beta skipped it).
func ld32sfi(d []byte, a uint32, mask uint32) uint32 {
	return binary.LittleEndian.Uint32(d[a&mask&^3:])
}

func ld8chk(d []byte, a uint32) uint32 {
	if a >= uint32(len(d)) {
		mem.Throw(mem.TrapOOBLoad, a)
	}
	return uint32(d[a])
}

func st8chk(d []byte, a, v uint32) {
	if a >= uint32(len(d)) {
		mem.Throw(mem.TrapOOBStore, a)
	}
	d[a] = byte(v)
}

func ld8nil(d []byte, a uint32) uint32 {
	if a < mem.NilPageSize {
		mem.Throw(mem.TrapNilDeref, a)
	}
	return ld8chk(d, a)
}

func st8nil(d []byte, a, v uint32) {
	if a < mem.NilPageSize {
		mem.Throw(mem.TrapNilDeref, a)
	}
	st8chk(d, a, v)
}
