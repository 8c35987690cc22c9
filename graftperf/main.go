// Command graftperf is graftlab's end-to-end benchmark: per-class hook
// latency of the paper's grafts on three workloads, with every output
// checked against an independent reference, and a traced mode that
// splits the cost into the program's layers. See DESIGN.md.
//
//	bash graftperf/run.sh --workload evict-tpcb --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it records the
// host (GOMAXPROCS, NumCPU, Go version), the seed and the sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graftperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: evict-tpcb, ld-write or pf-live")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "run length in seconds; sets the fixed amount of work")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*name]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "graftperf: need --workload evict-tpcb|ld-write|pf-live, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	res, err := execute(options{workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(stderr, "graftperf: %v\n", err)
		return 1
	}
	info, err := json.Marshal(res.info)
	if err != nil {
		fmt.Fprintf(stderr, "graftperf: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", info, res.line())
	if !res.correct {
		fmt.Fprintf(stderr, "graftperf: output mismatch: %v\n", res.info["mismatch"])
		return 1
	}
	return 0
}

// line renders the result object.
func (r *result) line() string {
	var b strings.Builder
	fmt.Fprintf(&b, `{"correct": %t, "attempted": %d, "failed": %d, "metrics": {`, r.correct, max(r.attempted, 1), r.failed)
	if r.metrics != nil {
		for i, n := range r.metrics.names {
			if i > 0 {
				b.WriteString(", ")
			}
			v, _ := json.Marshal(r.metrics.values[i])
			fmt.Fprintf(&b, `%q: {"value": %s, "unit": %q}`, n, v, r.metrics.units[i])
		}
	}
	b.WriteString("}}")
	return b.String()
}
