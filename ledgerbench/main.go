// Command ledgerbench is the repository's end-to-end benchmark with a
// per-layer ledger. It regenerates Figure 5 the way `teaexp fig5` does
// and serves profiling jobs through teaserve over a loopback listener,
// checks every output, and reports end-to-end metrics (untraced runs)
// or per-layer metrics and the layer ledger (traced runs). Metric
// definitions live in METRICS.md beside this file.
//
// Run it from the root of a checkout:
//
//	bash ledgerbench/run.sh --workload fig5_cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workDir holds everything a run writes: temporary service state and
// span files. It is relative to the checkout root the run starts in.
const workDir = ".bench_build"

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd lists the metrics a user of the system sees, printed by
// untraced runs. Every workload reports every one of them.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"jobs_per_s", "1/s"},
	{"job_p50_ms", "ms"},
	{"job_p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the ledger's per-layer metrics, printed by traced
// runs.
var perLayer = []metric{
	{"cpu.ns_per_cycle", "ns"},
	{"cpu.minst_per_s", "Minst/s"},
	{"cpu.cycles", "count"},
	{"cpu.committed", "count"},
	{"trace.encode_ns_per_record", "ns"},
	{"trace.decode_ns_per_record", "ns"},
	{"trace.records", "count"},
	{"trace.bytes_per_cycle", "B/cycle"},
	{"analysis.capture_ms", "ms"},
	{"analysis.replay_ms", "ms"},
	{"analysis.captures", "count"},
	{"analysis.replay_useful_ratio", "ratio"},
	{"core.golden_ms", "ms"},
	{"core.tea_ms", "ms"},
	{"profilers.nci-tea_ms", "ms"},
	{"profilers.ibs_ms", "ms"},
	{"profilers.spe_ms", "ms"},
	{"profilers.ris_ms", "ms"},
	{"profilers.counters_ms", "ms"},
	{"profilers.events_ms", "ms"},
	{"profilers.stalls_ms", "ms"},
	{"pics.render_ms", "ms"},
	{"pics.profile_bytes", "B"},
	{"tracestore.hit_ratio", "ratio"},
	{"tracestore.get_us", "us"},
	{"tracestore.put_ms", "ms"},
	{"tracestore.put_bytes", "B"},
	{"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"serve.rejected", "count"},
	{"journal.sync_ms", "ms"},
	{"journal.syncs_per_job", "count"},
	{"journal.bytes_per_job", "B"},
	{"go.alloc_mb", "MiB"},
	{"go.gc_cycles", "count"},
	{"ledger.unaccounted_pct", "%"},
	{"ledger.trace_overhead_pct", "%"},
	{"failed_ratio", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// report is what one workload run measured.
type report struct {
	attempted int
	failed    int
	// mismatches lists failed output checks, for the log.
	mismatches []string
	values     map[string]float64
	// spans are the traced run's records, written out at the end.
	spans []spanRecord
}

func newReport() *report { return &report{values: map[string]float64{}} }

// fail records one failed operation or output check.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// drivers maps each workload name to its driver.
var drivers = map[string]func(context.Context, options) (*report, error){
	"fig5_cold":  runFig5,
	"serve_hit":  func(ctx context.Context, o options) (*report, error) { return runServe(ctx, o, false) },
	"serve_miss": func(ctx context.Context, o options) (*report, error) { return runServe(ctx, o, true) },
}

func main() {
	os.Exit(run(context.Background()))
}

func run(ctx context.Context) int {
	var o options
	var seconds, traced int
	flag.StringVar(&o.workload, "workload", "", "workload: fig5_cold, serve_hit or serve_miss")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traced, "trace", 0, "1 records spans and prints the per-layer metrics")
	record := flag.String("record-golden", "", "write the Figure 5 golden file to this path and exit")
	flag.Parse()
	if *record != "" {
		if err := recordGolden(ctx, *record); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
			return 1
		}
		return 0
	}
	drive, ok := drivers[o.workload]
	if !ok || seconds < 1 || (traced != 0 && traced != 1) {
		fmt.Fprintf(os.Stderr, "ledgerbench: need --workload fig5_cold|serve_hit|serve_miss, --seconds >= 1 and --trace 0|1 (got %q, %d, %d)\n",
			o.workload, seconds, traced)
		return 2
	}
	o.seconds = time.Duration(seconds) * time.Second
	o.trace = traced == 1

	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 1
	}
	rep, err := drive(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 1
	}
	if o.trace {
		rep.values["failed_ratio"] = float64(rep.failed) / float64(max(rep.attempted, 1))
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := writeSpans(path, rep.spans); err != nil {
			fmt.Fprintln(os.Stderr, "ledgerbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", len(rep.spans), path)
	}
	for _, m := range rep.mismatches {
		fmt.Printf("check failed: %s\n", m)
	}
	list := endToEnd
	if o.trace {
		list = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(list))
	for _, m := range list {
		v, ok := rep.values[m.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "ledgerbench: workload %s did not measure %s\n", o.workload, m.name)
			return 1
		}
		metrics[m.name] = value{v, m.unit}
		fmt.Printf("%-30s %16.6g %s\n", m.name, v, m.unit)
	}
	fmt.Printf("%-30s %16d ops (%d failed)\n", "attempted", rep.attempted, rep.failed)
	out, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ledgerbench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}
