// Command graftvm runs a GEL graft standalone under any extension
// technology, for trying grafts outside the kernel simulator.
//
// Usage:
//
//	graftvm -tech native-unsafe -entry main graft.gel 1 2 3
//	graftvm -tech bytecode -fuel 1000000 graft.gel
//	graftvm -tech bytecode -vm=baseline graft.gel 1 2 3
//	graftvm -tech script graft.tcl 1 2 3
//	graftvm -list
//
// Arguments after the source file are u32 values passed to the entry
// point. The result and any trap are printed. Under -tech script the
// file is Tcl, under -tech domain HiPEC assembler.
//
// To check an engine's answer, compare it with the reference
// interpreter (-tech bytecode -vm=baseline, the conformance oracle's
// reference) and with -tech script on a Tcl rendering of the graft,
// which shares no code with the bytecode pipeline. The native-*, sfi*
// and aot technologies all run aot's closure backend, so agreement
// among them alone shows little.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"graftlab/internal/mem"
	"graftlab/internal/tech"
)

func main() {
	var (
		techName = flag.String("tech", string(tech.NativeUnsafe), "technology to load under")
		entry    = flag.String("entry", "main", "entry point function")
		memBits  = flag.Uint("membits", 20, "log2 of linear memory size")
		fuel     = flag.Int64("fuel", 0, "execution budget (0 = unmetered)")
		vmMode   = flag.String("vm", "", `bytecode engine: "opt" (default) or "baseline"`)
		list     = flag.Bool("list", false, "list technologies and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range tech.All {
			fmt.Printf("%-16s %s\n", id, tech.PaperName(id))
		}
		return
	}
	if err := run(*techName, *entry, *memBits, *fuel, *vmMode, flag.Args()); err != nil {
		fmt.Fprintf(os.Stderr, "graftvm: %v\n", err)
		os.Exit(1)
	}
}

func run(techName, entry string, memBits uint, fuel int64, vmMode string, args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: graftvm [flags] graft.gel [args...]")
	}
	mode, err := tech.ParseVMMode(vmMode)
	if err != nil {
		return err
	}
	srcBytes, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	var callArgs []uint32
	for _, a := range args[1:] {
		v, err := strconv.ParseUint(a, 0, 32)
		if err != nil {
			return fmt.Errorf("argument %q: %w", a, err)
		}
		callArgs = append(callArgs, uint32(v))
	}
	if memBits < 3 || memBits > 30 {
		return fmt.Errorf("membits %d out of range [3,30]", memBits)
	}
	src := tech.Source{Name: args[0], GEL: string(srcBytes), Tcl: string(srcBytes)}
	if tech.ID(techName) == tech.Domain {
		// Under the domain class the file is HiPEC assembler for the
		// single entry point named by -entry.
		src = tech.Source{Name: args[0], Hipec: map[string]string{entry: string(srcBytes)}}
	}
	m := mem.New(1 << memBits)
	g, err := tech.Load(tech.ID(techName), src, m, tech.Options{Fuel: fuel, VM: mode})
	if err != nil {
		return err
	}
	v, err := g.Invoke(entry, callArgs...)
	if err != nil {
		return fmt.Errorf("%s(%v): %w", entry, callArgs, err)
	}
	fmt.Printf("%s(%v) = %d (0x%x)\n", entry, callArgs, v, v)
	return nil
}
