package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"

	"repro/internal/analysis"
	"repro/internal/serve"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// fig5Golden is the recorded Figure 5 result at the evaluation
// configuration: the accuracy rows every figure run must reproduce
// exactly, and the exact counts the traced run's re-drive must repeat.
// Regenerate it with --record-golden only when the model's output is
// meant to change.
type fig5Golden struct {
	Rows         []analysis.AccuracyRow `json:"rows"`
	Cycles       uint64                 `json:"cycles"`
	Committed    uint64                 `json:"committed"`
	Records      uint64                 `json:"records"`
	ProfileBytes uint64                 `json:"profile_bytes"`
}

//go:embed fig5_golden.json
var fig5GoldenJSON []byte

// fig5Inputs are the 20 suite programs at rc's scale, each rendered
// for every profile technique.
func fig5Inputs(rc analysis.RunConfig) []input {
	all := workloads.All()
	ins := make([]input, len(all))
	for i, w := range all {
		ins[i] = input{job: int64(i), w: w, p: w.Build(rc.Iters(w)), rc: rc, techniques: serve.AllTechniques}
	}
	return ins
}

// sameRows reports the first difference between two accuracy tables.
func sameRows(got, want []analysis.AccuracyRow) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d accuracy rows, recorded %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Benchmark != w.Benchmark || len(g.Errors) != len(w.Errors) {
			return fmt.Errorf("row %d is %s with %d techniques, recorded %s with %d",
				i, g.Benchmark, len(g.Errors), w.Benchmark, len(w.Errors))
		}
		for tech, e := range w.Errors {
			if ge, ok := g.Errors[tech]; !ok || ge != e {
				return fmt.Errorf("%s %s error is %v, recorded %v", g.Benchmark, tech, ge, e)
			}
		}
	}
	return nil
}

// figure regenerates Figure 5 once from a fresh memory-only trace
// store, as `teaexp fig5` without -tracecache does, and checks it.
func figure(tr *tracer, rep *report, golden *fig5Golden, rc analysis.RunConfig, job int64) (time.Duration, tracestore.Stats, uint64) {
	store := analysis.NewTraceStore(analysis.DefaultStoreBudget, "")
	analysis.SetTraceStore(store)
	before := analysis.CaptureCount()
	root := tr.start("figure", 0, job)
	sp := tr.start("analysis.RunSuite", root.id, job)
	runs := analysis.RunSuite(rc)
	sp.end()
	sp = tr.start("analysis.AccuracyStudy", root.id, job)
	rows := analysis.AccuracyStudy(runs)
	sp.end()
	d := root.end()
	captures := analysis.CaptureCount() - before
	rep.attempted++
	if err := sameRows(rows, golden.Rows); err != nil {
		rep.fail("figure %d: %v", job, err)
	} else if captures != uint64(len(runs)) {
		rep.fail("figure %d: %d captures for %d workloads", job, captures, len(runs))
	}
	return d, store.Snapshot(), captures
}

// fastest returns the faster half, rounded up, of the figure times:
// interference from other tenants of the host only ever slows a figure
// down, so these are the least disturbed.
func fastest(durs []float64) []float64 {
	s := slices.Clone(durs)
	slices.Sort(s)
	return s[:(len(s)+1)/2]
}

// fig5Setup is the state the measured figures start from.
type fig5Setup struct {
	golden fig5Golden
	ins    []input
}

// runFig5 drives the fig5_cold workload. The seed does not change its
// inputs: Figure 5 is one fixed configuration.
func runFig5(ctx context.Context, o options) (*report, error) {
	rep := newReport()
	rc := analysis.DefaultRunConfig()
	setup := func() (fig5Setup, error) {
		var st fig5Setup
		if err := json.Unmarshal(fig5GoldenJSON, &st.golden); err != nil {
			return st, fmt.Errorf("golden file: %w", err)
		}
		st.ins = fig5Inputs(rc)
		// Warm code paths, pools and the heap on a small-scale suite,
		// so the measured figures do not pay for first use.
		warm := rc
		warm.Scale = 0.05
		analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
		analysis.AccuracyStudy(analysis.RunSuite(warm))
		return st, nil
	}
	var st fig5Setup
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	rep.values["setup_s"] = median(setupS)

	var durs, traced, plain []float64
	var hits, lookups, captures uint64
	rt := readGoRuntime()
	measure := func(tr *tracer, budget time.Duration) {
		t0 := time.Now()
		for first := true; first || time.Since(t0) < budget; first = false {
			d, snap, n := figure(tr, rep, &st.golden, rc, int64(rep.attempted))
			captures += n
			durs = append(durs, ms(d))
			if tr != nil {
				traced = append(traced, ms(d))
			} else {
				plain = append(plain, ms(d))
			}
			hits += snap.Hits + snap.DiskHits
			lookups += snap.Hits + snap.DiskHits + snap.Misses
		}
	}
	var tr *tracer
	if !o.trace {
		measure(nil, o.seconds)
	} else {
		// Alternate traced and untraced slices so drift in the host
		// lands on both sides of the overhead comparison.
		tr = newTracer()
		for i := 0; i < 4; i++ {
			if i%2 == 0 {
				measure(tr, o.seconds/4)
			} else {
				measure(nil, o.seconds/4)
			}
		}
	}
	rtEnd := readGoRuntime()
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	kept := fastest(durs)
	sum := 0.0
	for _, d := range kept {
		sum += d
	}
	rep.values["jobs_per_s"] = 1000 * float64(len(kept)) / sum
	rep.values["job_p50_ms"] = median(kept)
	rep.values["job_p90_ms"] = quantile(kept, 0.9)
	rep.values["peak_rss_mb"] = rss
	if !o.trace {
		return rep, nil
	}

	rt.perOp(rep.values, rtEnd, len(durs))
	rep.values["analysis.captures"] = float64(captures) / float64(len(durs))
	rep.values["analysis.replay_useful_ratio"] = float64(len(serve.AllTechniques)) / float64(len(probeNames))
	rep.values["tracestore.hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	for _, name := range []string{"serve.queue_ms", "serve.run_ms", "serve.http_ms", "serve.rejected",
		"journal.sync_ms", "journal.syncs_per_job", "journal.bytes_per_job"} {
		rep.values[name] = 0 // the figure path has no service and no journal
	}

	dir, err := os.MkdirTemp(workDir, "fig5-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	costs, err := redriveAll(ctx, tr, st.ins, dir)
	if err != nil {
		return nil, err
	}
	layerMetrics(rep.values, costs, 1)
	checkCounts(rep, costs, &st.golden)

	// The ledger follows the figure's own blocking steps: every
	// capture across the cores, then every replay, then the accuracy
	// study. Their sum against the figure time leaves what no layer
	// accounts for.
	phases, err := fig5Phases(ctx, tr, rep, &st.golden, st.ins)
	if err != nil {
		return nil, err
	}
	fig := median(traced)
	rep.values["ledger.unaccounted_pct"] = 100 * (fig - ms(phases)) / fig
	rep.values["ledger.trace_overhead_pct"] = 100 * (fig - median(plain)) / median(plain)
	rep.spans = tr.records()
	return rep, nil
}

// checkCounts compares the re-drive's exact counts with the recorded
// ones.
func checkCounts(rep *report, costs []layerCost, golden *fig5Golden) {
	var got fig5Golden
	for _, c := range costs {
		got.Cycles += c.cycles
		got.Committed += c.committed
		got.Records += c.records
		got.ProfileBytes += c.profileBytes
	}
	if got.Cycles != golden.Cycles || got.Committed != golden.Committed ||
		got.Records != golden.Records || got.ProfileBytes != golden.ProfileBytes {
		rep.fail("exact counts cycles/committed/records/profile bytes %d/%d/%d/%d, recorded %d/%d/%d/%d",
			got.Cycles, got.Committed, got.Records, got.ProfileBytes,
			golden.Cycles, golden.Committed, golden.Records, golden.ProfileBytes)
	}
}

// fig5Phases re-drives one figure phase by phase through the public
// calls RunSuite is built from, and returns the summed phase times.
func fig5Phases(ctx context.Context, tr *tracer, rep *report, golden *fig5Golden, ins []input) (time.Duration, error) {
	par := runtime.GOMAXPROCS(0)
	job := int64(-1)
	datas := make([][]byte, len(ins))
	runs := make([]*analysis.BenchRun, len(ins))
	errs := make([]error, len(ins))

	phase := tr.start("ledger.capture_phase", 0, job)
	parallel(len(ins), par, func(i int) {
		sp := tr.start("analysis.capture", phase.id, ins[i].job)
		datas[i], _, errs[i] = analysis.CaptureTrace(ctx, ins[i].p, ins[i].rc)
		sp.end()
	})
	total := phase.end()

	phase = tr.start("ledger.replay_phase", 0, job)
	parallel(len(ins), par, func(i int) {
		if errs[i] != nil {
			return
		}
		sp := tr.start("analysis.replay", phase.id, ins[i].job)
		runs[i], errs[i] = analysis.ReplayCaptured(ctx, ins[i].w, ins[i].p, ins[i].rc, datas[i])
		sp.end()
	})
	total += phase.end()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}

	sp := tr.start("analysis.AccuracyStudy", 0, job)
	rows := analysis.AccuracyStudy(runs)
	total += sp.end()
	rep.attempted++
	if err := sameRows(rows, golden.Rows); err != nil {
		rep.fail("phase re-drive: %v", err)
	}
	return total, nil
}

// recordGolden runs Figure 5 once and writes its rows and exact counts
// to path.
func recordGolden(ctx context.Context, path string) error {
	rc := analysis.DefaultRunConfig()
	g := fig5Golden{Rows: analysis.AccuracyStudy(analysis.RunSuite(rc))}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, "golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	costs, err := redriveAll(ctx, nil, fig5Inputs(rc), dir)
	if err != nil {
		return err
	}
	for _, c := range costs {
		g.Cycles += c.cycles
		g.Committed += c.committed
		g.Records += c.records
		g.ProfileBytes += c.profileBytes
	}
	out, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
