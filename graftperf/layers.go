package main

import (
	"graftlab/internal/aot"
	"graftlab/internal/bytecode"
	"graftlab/internal/compile"
	"graftlab/internal/gel"
	"graftlab/internal/mem"
	"graftlab/internal/native"
	"graftlab/internal/tech"
	"graftlab/internal/vm"
)

// layerGroups lists the per-layer metrics that only some workloads
// exercise. A workload reports the groups it does not run as zero, so
// every traced run prints every per-layer metric.
var layerGroups = map[string][][2]string{
	"kernel": {
		{"kernel.pager_self_ns", "ns"}, {"kernel.policy_calls", "count"},
		{"kernel.override_ratio", "ratio"}, {"kernel.policy_errors", "count"},
	},
	"ld": {
		{"ld.write_self_ns", "ns"}, {"ld.segment_flushes", "count"}, {"disk.virtual_s", "s"},
	},
	"lifecycle": {
		{"lifecycle.slot_self_ns", "ns"}, {"lifecycle.retry_ratio", "ratio"},
		{"lifecycle.abort_ratio", "ratio"}, {"lifecycle.swaps", "count"},
		{"lifecycle.stage_ms", "ms"}, {"lifecycle.promote_us", "us"},
	},
	"telemetry": {
		{"telemetry.invocations", "count"}, {"telemetry.window_snapshot_us", "us"},
		{"telemetry.watchdog_check_us", "us"},
	},
}

func addUnusedLayers(m *metrics, groups ...string) {
	for _, g := range groups {
		for _, nu := range layerGroups[g] {
			m.add(nu[0], 0, nu[1])
		}
	}
}

func traced(lanes []*laneState) bool {
	for _, ls := range lanes {
		if ls.traced {
			return true
		}
	}
	return false
}

// phaseReps is how often each set-up phase is timed; the median is
// reported.
const phaseReps = 9

// addSetupPhases times each public load phase of src on its own —
// parse, bytecode compile, optimizing-VM translation, AOT verification
// and translation, and runtime codegen — and reports the AOT verifier's
// proof coverage from the translated program.
func addSetupPhases(m *metrics, src tech.Source, memSize uint32) error {
	checked, err := tech.Config(tech.NativeSafe)
	if err != nil {
		return err
	}
	var parse, comp, vmx, aotx, nat []float64
	var stats aot.Stats
	for i := 0; i < phaseReps; i++ {
		var prog *gel.Program
		d, err := elapsed(func() (err error) { prog, err = gel.ParseAndCheck(src.GEL); return })
		if err != nil {
			return err
		}
		parse = append(parse, d)
		var mod *bytecode.Module
		d, err = elapsed(func() (err error) { mod, err = compile.Compile(prog); return })
		if err != nil {
			return err
		}
		comp = append(comp, d)
		m := mem.New(memSize)
		d, err = elapsed(func() error { _, err := vm.NewOpt(mod, m, checked, vm.OptConfig{}); return err })
		if err != nil {
			return err
		}
		vmx = append(vmx, d)
		var p *aot.Prog
		m = mem.New(memSize)
		d, err = elapsed(func() (err error) { p, err = aot.New(mod, m, checked); return })
		if err != nil {
			return err
		}
		aotx = append(aotx, d)
		stats = p.VerifyStats()
		m = mem.New(memSize)
		d, err = elapsed(func() error { _, err := native.Compile(prog, m, checked); return err })
		if err != nil {
			return err
		}
		nat = append(nat, d)
	}
	m.add("setup.gel_parse_ms", median(parse)/1e6, "ms")
	m.add("setup.compile_ms", median(comp)/1e6, "ms")
	m.add("setup.vm_translate_ms", median(vmx)/1e6, "ms")
	m.add("setup.aot_translate_ms", median(aotx)/1e6, "ms")
	m.add("setup.native_compile_ms", median(nat)/1e6, "ms")
	m.add("aot.proven_load_ratio", ratio(float64(stats.ProvenLoads), float64(stats.Loads)), "ratio")
	m.add("aot.proven_store_ratio", ratio(float64(stats.ProvenStores), float64(stats.Stores)), "ratio")
	return nil
}
