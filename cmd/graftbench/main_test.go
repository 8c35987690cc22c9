package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"graftlab/internal/bench"
	"graftlab/internal/tech"
	"graftlab/internal/telemetry"
)

// microConfig keeps CLI tests fast while exercising every experiment path.
func microConfig() bench.Config {
	cfg := bench.Quick()
	cfg.Runs = 2
	cfg.EvictIters = 200
	cfg.MD5Bytes = 8 << 10
	cfg.MD5ScriptBytes = 1 << 10
	cfg.LDWrites = 1024
	cfg.LDScriptWrites = 64
	cfg.SignalIters = 10
	cfg.FaultPages = 64
	cfg.DiskWriteBytes = 128 << 10
	return cfg
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := run(microConfig(), "table99", "", "", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestIndividualExperiments(t *testing.T) {
	cfg := microConfig()
	for _, exp := range []string{"table2", "table3", "table4", "table5", "table6", "ablation", "pktfilter"} {
		exp := exp
		t.Run(exp, func(t *testing.T) {
			if _, err := run(cfg, exp, "", "", true); err != nil {
				t.Fatalf("%s: %v", exp, err)
			}
		})
	}
}

func TestFigure1WritesCSV(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "fig1.csv")
	js := filepath.Join(dir, "results.json")
	if _, err := run(microConfig(), "figure1", csv, js, true); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(js)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]any
	if err := json.Unmarshal(data, &report); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if _, ok := report["figure1"]; !ok {
		t.Fatalf("report lacks figure1: %v", report)
	}
	if report["note"] != "quick-scale" {
		t.Fatalf("note = %v", report["note"])
	}
	host, ok := report["host"].(map[string]any)
	if !ok {
		t.Fatalf("report lacks host info: %v", report)
	}
	if host["goarch"] == "" || host["go_version"] == "" {
		t.Fatalf("incomplete host info: %v", host)
	}
	if _, ok := report["config"]; !ok {
		t.Fatalf("report lacks config: %v", report)
	}
}

func TestDefaultJSONPath(t *testing.T) {
	if got := defaultJSONPath("table5"); got != "BENCH_table5.json" {
		t.Fatalf("defaultJSONPath = %q", got)
	}
}

// TestCheckAgainst pins the CLI end of the regression gate: a matching
// baseline passes, a wildly faster baseline fails, a disjoint or missing
// one errors.
func TestCheckAgainst(t *testing.T) {
	cfg := microConfig()
	report, err := run(cfg, "table5", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	writeBaseline := func(r *bench.Report) string {
		data, err := r.Encode()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "baseline.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cmp, err := checkAgainst(report, writeBaseline(report), 0.30, 0)
	if err != nil {
		t.Fatalf("self-comparison failed: %v", err)
	}
	if cmp == nil || cmp.Compared() == 0 {
		t.Fatal("self-comparison gated no cells")
	}
	fast := *report.MD5
	fast.Rows = append([]bench.MD5Row(nil), report.MD5.Rows...)
	for i := range fast.Rows {
		fast.Rows[i].Total /= 100
	}
	if _, err := checkAgainst(report, writeBaseline(&bench.Report{MD5: &fast}), 0.30, 0); err == nil {
		t.Fatal("100x regression passed the gate")
	}
	// A baseline sharing nothing with this run must error, and the error
	// must carry the explicit skip summary rather than failing silently.
	_, err = checkAgainst(report, writeBaseline(&bench.Report{}), 0.30, 0)
	if err == nil {
		t.Fatal("baseline with no comparable metrics accepted")
	}
	if !strings.Contains(err.Error(), "skipped") {
		t.Fatalf("disjoint-baseline error lacks the skip summary: %v", err)
	}
	if _, err := checkAgainst(report, filepath.Join(t.TempDir(), "missing.json"), 0.30, 0); err == nil {
		t.Fatal("missing baseline file accepted")
	}
}

// TestCheckAgainstNoiseTolerated pins the effect-size half of the gate at
// the CLI level: a bad-direction move past the tolerance does NOT fail
// when it sits inside the cells' own variance.
func TestCheckAgainstNoiseTolerated(t *testing.T) {
	noisy := func(total int64) *bench.Report {
		return &bench.Report{
			Config: &bench.Config{Runs: 5},
			MD5: &bench.MD5Result{Bytes: 1 << 20, Rows: []bench.MD5Row{{
				Tech: "compiled-unsafe", Total: time.Duration(total), RelStd: 0.60, N: 5,
			}}},
		}
	}
	base, cur := noisy(100_000_000), noisy(140_000_000)
	data, err := base.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cmp, err := checkAgainst(cur, path, 0.30, 0.8)
	if err != nil {
		t.Fatalf("in-variance move failed the gate: %v", err)
	}
	if got := cmp.Cells[0].Verdict; got != bench.VerdictNoise {
		t.Fatalf("verdict = %q, want noise", got)
	}
}

// TestReportArtifacts pins -report-dir: all three suite artifacts land in
// the directory and are well-formed.
func TestReportArtifacts(t *testing.T) {
	report, err := run(microConfig(), "table5", "", "", true)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "bench-out")
	if err := writeReportArtifacts(dir, report, nil, bench.ReportOptions{}); err != nil {
		t.Fatal(err)
	}
	jdata, err := os.ReadFile(filepath.Join(dir, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(jdata, &decoded); err != nil {
		t.Fatalf("results.json invalid: %v", err)
	}
	if _, ok := decoded["table5"]; !ok {
		t.Fatalf("results.json lacks table5: %v", decoded)
	}
	cdata, err := os.ReadFile(filepath.Join(dir, "results.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(cdata), "experiment,row,metric,unit,value,n,cv,") {
		t.Fatalf("results.csv header wrong:\n%s", cdata)
	}
	mdata, err := os.ReadFile(filepath.Join(dir, "REPORT.md"))
	if err != nil {
		t.Fatal(err)
	}
	md := string(mdata)
	for _, want := range []string{"# graftlab benchmark report", "warmup", "Table 5"} {
		if !strings.Contains(md, want) {
			t.Fatalf("REPORT.md lacks %q:\n%s", want, md)
		}
	}
}

// TestVMBaselineSelectable pins that the -vm=baseline plumbing reaches the
// vm rows: a baseline-config run must still produce correct results.
func TestVMBaselineSelectable(t *testing.T) {
	cfg := microConfig()
	mode, err := tech.ParseVMMode("baseline")
	if err != nil {
		t.Fatal(err)
	}
	cfg.VM = mode
	if _, err := run(cfg, "table5", "", "", true); err != nil {
		t.Fatal(err)
	}
	if _, err := tech.ParseVMMode("nonsense"); err == nil {
		t.Fatal("bad -vm value accepted")
	}
}

// TestObservabilityExportFlags drives the full -profile-out / -spans-out /
// -trace-out pipeline at micro scale: enable every collector the CLI
// flags would enable, run one direct-dispatch experiment (profiler
// samples), one kernel-mediated experiment (span roots) and the
// ablation (which must not clobber the collectors), and require each
// dump to be well-formed — folded stacks with integer weights, Chrome
// trace JSON with complete duration events, and a JSONL trace whose
// last line is the accounting footer — with both trace dumps holding
// kernel events and causal spans from the one store.
func TestObservabilityExportFlags(t *testing.T) {
	dir := t.TempDir()
	if _, err := telemetry.EnableProfiler(256); err != nil {
		t.Fatal(err)
	}
	telemetry.EnableSpans(1 << 14)
	if err := telemetry.SetSpanSampleEvery(8); err != nil {
		t.Fatal(err)
	}
	telemetry.SetEnabled(true)
	t.Cleanup(func() {
		telemetry.SetEnabled(false)
		telemetry.DisableSpans()
		telemetry.DisableProfiler()
		_ = telemetry.SetSpanSampleEvery(64)
		telemetry.ResetMetrics()
	})

	cfg := microConfig()
	cfg.Telemetry = true
	// table2 exercises the metered engines (profiler hits); table6
	// routes writes through the Logical Disk (span roots); the ablation
	// installs collectors of its own unless the caller's are on.
	for _, exp := range []string{"table2", "table6", "ablation"} {
		if _, err := run(cfg, exp, "", "", true); err != nil {
			t.Fatalf("%s: %v", exp, err)
		}
	}

	prof := filepath.Join(dir, "profile.folded")
	if err := dumpProfile(prof); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	folded := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(folded) == 0 || folded[0] == "" {
		t.Fatal("folded profile is empty")
	}
	for _, line := range folded {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.Count(fields[0], ";") != 2 {
			t.Fatalf("malformed folded line %q, want graft;tech;site weight", line)
		}
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			t.Fatalf("folded weight in %q is not an integer: %v", line, err)
		}
	}

	spansPath := filepath.Join(dir, "spans.json")
	if err := dumpTrace(spansPath, "Chrome trace JSON", (*telemetry.SpanTrace).WriteChromeTrace); err != nil {
		t.Fatal(err)
	}
	sdata, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var chrome struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(sdata, &chrome); err != nil {
		t.Fatalf("-spans-out is not valid Chrome trace JSON: %v", err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("span export recorded no events from the LD run")
	}
	chromeCats := map[bool]int{}
	for _, e := range chrome.TraceEvents {
		if e.Ph != "X" || e.Name == "" {
			t.Fatalf("malformed trace event %+v", e)
		}
		chromeCats[e.Cat == telemetry.EventCat]++
	}
	if chromeCats[true] == 0 || chromeCats[false] == 0 {
		t.Errorf("-spans-out holds %d events and %d spans, want both", chromeCats[true], chromeCats[false])
	}

	tracePath := filepath.Join(dir, "trace.jsonl")
	if err := dumpTrace(tracePath, "JSONL", (*telemetry.SpanTrace).WriteJSONL); err != nil {
		t.Fatal(err)
	}
	tdata, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	tlines := strings.Split(strings.TrimSpace(string(tdata)), "\n")
	var footer struct {
		Footer  bool   `json:"footer"`
		Emitted uint64 `json:"emitted"`
	}
	if err := json.Unmarshal([]byte(tlines[len(tlines)-1]), &footer); err != nil || !footer.Footer {
		t.Fatalf("trace JSONL does not end with the accounting footer: %q", tlines[len(tlines)-1])
	}
	if footer.Emitted == 0 {
		t.Error("trace footer reports zero emitted events after a traced run")
	}
	jsonlCats := map[bool]int{}
	for _, l := range tlines[:len(tlines)-1] {
		var rec struct {
			Cat string `json:"cat"`
		}
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("trace JSONL line %q: %v", l, err)
		}
		jsonlCats[rec.Cat == telemetry.EventCat]++
	}
	if jsonlCats[true] == 0 || jsonlCats[false] == 0 {
		t.Errorf("-trace-out holds %d events and %d spans, want both", jsonlCats[true], jsonlCats[false])
	}
}
