package bench

import (
	"os"
	"strings"
	"testing"
	"time"

	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
	"graftlab/internal/upcall"
)

// TestMain lets this test binary serve as the Table 1 signal child.
func TestMain(m *testing.M) {
	upcall.SignalChildMain()
	os.Exit(m.Run())
}

// tiny returns a configuration small enough for unit tests.
func tiny() Config {
	c := Quick()
	c.Runs = 2
	c.EvictIters = 200
	c.MD5Bytes = 16 << 10
	c.MD5ScriptBytes = 2 << 10
	c.LDWrites = 2048
	c.LDScriptWrites = 128
	c.SignalIters = 20
	c.FaultPages = 128
	c.DiskWriteBytes = 256 << 10
	return c
}

func TestRunEvictionShape(t *testing.T) {
	res, err := RunEviction(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(evictTechs)+1 { // + upcall row
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byTech := map[string]EvictRow{}
	for _, r := range res.Rows {
		byTech[r.Tech] = r
		if r.Per <= 0 {
			t.Errorf("%s: nonpositive time", r.Tech)
		}
		if r.BreakEven <= 0 {
			t.Errorf("%s: nonpositive break-even", r.Tech)
		}
	}
	native := byTech[string(tech.CompiledUnsafe)]
	if native.Normalized != 1.0 {
		t.Errorf("native normalized = %v", native.Normalized)
	}
	// Ordering invariants from the paper: script >> bytecode > compiled.
	if byTech[string(tech.Script)].Per < 20*byTech[string(tech.CompiledUnsafe)].Per {
		t.Errorf("script (%v) not >> native (%v)", byTech[string(tech.Script)].Per, native.Per)
	}
	if byTech[string(tech.Bytecode)].Per < 2*byTech[string(tech.CompiledUnsafe)].Per {
		t.Errorf("bytecode (%v) not clearly slower than compiled (%v)",
			byTech[string(tech.Bytecode)].Per, native.Per)
	}
	// Table renders.
	out := res.Table().String()
	for _, want := range []string{"Table 2", "compiled-unsafe", "break-even"} {
		if !strings.Contains(out, want) {
			t.Errorf("table lacks %q", want)
		}
	}
}

func TestRunMD5Shape(t *testing.T) {
	res, err := RunMD5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(md5Techs)+1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	var native, script MD5Row
	for _, r := range res.Rows {
		if r.Tech == string(tech.CompiledUnsafe) {
			native = r
		}
		if r.Tech == string(tech.Script) {
			script = r
		}
	}
	if native.Total <= 0 || script.Total <= 0 {
		t.Fatal("nonpositive totals")
	}
	if !script.Scaled {
		t.Error("script row should be marked scaled")
	}
	if script.Total < 50*native.Total {
		t.Errorf("script MD5 (%v) not orders slower than native (%v)", script.Total, native.Total)
	}
	if !strings.Contains(res.Table().String(), "MD5/disk") {
		t.Error("table lacks MD5/disk column")
	}
}

func TestRunLDShape(t *testing.T) {
	res, err := RunLD(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(ldTechs)+1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if res.SavedPerBlock <= 0 {
		t.Error("log layer saves nothing per block?")
	}
	for _, r := range res.Rows {
		if r.PerBlock <= 0 {
			t.Errorf("%s: nonpositive per-block", r.Tech)
		}
	}
	// The paper's conclusion: compiled per-block overhead is far below
	// the virtual seek-time budget.
	for _, r := range res.Rows {
		if r.Tech == string(tech.CompiledUnsafe) && time.Duration(r.PerBlock) > res.SavedPerBlock {
			t.Errorf("compiled per-block %v exceeds savings %v", r.PerBlock, res.SavedPerBlock)
		}
	}
	if !strings.Contains(res.Table().String(), "Table 6") {
		t.Error("table title missing")
	}
}

func TestRunSignalAndFaultAndDisk(t *testing.T) {
	cfg := tiny()
	sig, err := RunSignal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sig.Crossing <= 0 {
		t.Error("crossing nonpositive")
	}
	if sig.SignalErr == nil && sig.PerSignal < 0 {
		t.Error("negative per-signal")
	}
	if !strings.Contains(sig.Table().String(), "Table 1") {
		t.Error("table 1 title missing")
	}

	ft, err := RunFault(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ft.Measured <= 0 || ft.Simulated <= 0 {
		t.Errorf("fault result %+v", ft)
	}
	if ft.Simulated < 5*time.Millisecond {
		t.Errorf("simulated fault %v implausibly small for a 90s disk", ft.Simulated)
	}
	if !strings.Contains(ft.Table().String(), "Table 3") {
		t.Error("table 3 title missing")
	}

	dk, err := RunDisk(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if dk.ModelBW <= 0 || dk.Model1MB <= 0 {
		t.Errorf("disk result %+v", dk)
	}
	// The model disk should deliver 1-5 MB/s, the paper's band.
	if dk.ModelBW < 1<<20 || dk.ModelBW > 5<<20 {
		t.Errorf("model bandwidth %d outside 1-5 MB/s band", dk.ModelBW)
	}
	if !strings.Contains(dk.Table().String(), "Table 4") {
		t.Error("table 4 title missing")
	}
}

func TestRunFigure1(t *testing.T) {
	cfg := tiny()
	ev, err := RunEviction(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fig, err := RunFigure1(cfg, ev)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 26 {
		t.Fatalf("points = %d", len(fig.Points))
	}
	// Break-even is monotonically decreasing in upcall time.
	for i := 1; i < len(fig.Points); i++ {
		if fig.Points[i].BreakEven > fig.Points[i-1].BreakEven {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
	if fig.Points[0].BreakEven <= fig.Points[len(fig.Points)-1].BreakEven*2 {
		t.Error("curve suspiciously flat")
	}
	csv := fig.CSV()
	if !strings.Contains(csv, "upcall_us") || strings.Count(csv, "\n") != 27 {
		t.Errorf("csv malformed:\n%s", csv)
	}
	if !strings.Contains(fig.Table().String(), "Figure 1") {
		t.Error("figure table missing title")
	}
}

func TestRunPacketFilterShape(t *testing.T) {
	res, err := RunPacketFilter(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(pfBenchTechs)+1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byTech := map[string]PFRow{}
	for _, r := range res.Rows {
		byTech[r.Tech] = r
		if r.PerPacket <= 0 || r.PacketsPerSec <= 0 {
			t.Errorf("%s: nonpositive measurement", r.Tech)
		}
	}
	if byTech[string(tech.Script)].PerPacket < 10*byTech[string(tech.CompiledUnsafe)].PerPacket {
		t.Errorf("script (%v) not >> compiled (%v)",
			byTech[string(tech.Script)].PerPacket, byTech[string(tech.CompiledUnsafe)].PerPacket)
	}
	if !strings.Contains(res.Table().String(), "Packet Filter") {
		t.Error("table title missing")
	}
}

func TestRunAblation(t *testing.T) {
	cfg := tiny()
	ab, err := RunAblation(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ab.EvictSafe <= 0 || ab.EvictSafeNil <= 0 || ab.MD5SFI <= 0 || ab.MD5SFIFull <= 0 {
		t.Fatalf("ablation %+v", ab)
	}
	if ab.VMMetered <= 0 || ab.VMUnmetered <= 0 || ab.NativeMetered <= 0 || ab.NativeUnmetered <= 0 {
		t.Fatalf("fuel ablation %+v", ab)
	}
	if ab.EvictTelemetryOff <= 0 || ab.EvictTelemetryOn <= 0 ||
		ab.MD5TelemetryOff <= 0 || ab.MD5TelemetryOn <= 0 {
		t.Fatalf("telemetry ablation %+v", ab)
	}
	if telemetry.Enabled() {
		t.Error("ablation left telemetry enabled")
	}
	if telemetry.ProfilerEnabled() || telemetry.SpansEnabled() {
		t.Error("ablation left its own profiler or trace store on")
	}
	if !strings.Contains(ab.Table().String(), "NIL") {
		t.Error("ablation table missing")
	}
	if !strings.Contains(ab.Table().String(), "telemetry") {
		t.Error("ablation table missing telemetry rows")
	}
}

// TestAblationKeepsCallerCollectors: the ablation's observability rows
// must reuse a profile and trace store the caller already installed
// (graftbench -profile-out / -spans-out) rather than replacing them,
// and must leave both installed and on.
func TestAblationKeepsCallerCollectors(t *testing.T) {
	prof, err := telemetry.EnableProfiler(telemetry.DefaultProfileInterval)
	if err != nil {
		t.Fatal(err)
	}
	st := telemetry.EnableSpans(1 << 10)
	t.Cleanup(func() {
		telemetry.DisableSpans()
		telemetry.DisableProfiler()
	})
	if _, err := RunAblation(tiny()); err != nil {
		t.Fatal(err)
	}
	if telemetry.CurrentProfile() != prof || !telemetry.ProfilerEnabled() {
		t.Error("ablation replaced or disabled the caller's profile")
	}
	if telemetry.CurrentSpans() != st || !telemetry.SpansEnabled() {
		t.Error("ablation replaced or disabled the caller's trace store")
	}
	if len(prof.Samples()) == 0 {
		t.Error("caller's profile recorded nothing from the profiled MD5 graft")
	}
}

func TestSimulatedFaultTimeDerivation(t *testing.T) {
	cfg := Default()
	ft := cfg.SimulatedFaultTime()
	if ft < 10*time.Millisecond || ft > 30*time.Millisecond {
		t.Errorf("derived fault time %v outside 10-30ms band", ft)
	}
	cfg.SimFaultTime = time.Second
	if cfg.SimulatedFaultTime() != time.Second {
		t.Error("override ignored")
	}
}
