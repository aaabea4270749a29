// Package analysis is the experiment harness: it runs the benchmark
// suite with every profiling technique attached to one simulation (the
// paper's single-trace, out-of-band evaluation methodology) and
// regenerates the rows and series of every table and figure in the
// paper's evaluation (Section 4-6). DESIGN.md maps each experiment ID
// to the modules involved.
package analysis

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/simerr"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// RunConfig parameterizes one evaluation run.
type RunConfig struct {
	// Interval is the sampling period in cycles. The paper samples at
	// 4 KHz on 3.2 GHz hardware (one sample per 800,000 cycles over
	// minutes-long runs); simulated runs are scaled down, so the
	// default interval keeps the per-run sample count comparable.
	Interval uint64
	// Jitter decorrelates the sample clock from loop periods.
	Jitter uint64
	// Seed drives the sample-clock jitter.
	Seed uint64
	// Scale multiplies each workload's default iteration count
	// (1.0 = the evaluation size; tests use smaller values).
	Scale float64
	// Core is the core configuration (Table 2 defaults).
	Core cpu.Config
}

// DefaultRunConfig returns the evaluation configuration. The sampling
// interval is scaled with the run lengths: the paper samples once per
// 800,000 cycles over trillion-cycle SPEC runs (~1.5M samples, tens of
// samples per hot static instruction); the simulated kernels run for
// ~10^6 cycles with ~10^2 hot static instructions, so a 256-cycle
// interval keeps the samples-per-instruction density in the same
// regime. The interval is a flag in cmd/teaexp and swept in Figure 8.
func DefaultRunConfig() RunConfig {
	return RunConfig{
		Interval: 256,
		Jitter:   16,
		Seed:     1,
		Scale:    1.0,
		Core:     cpu.DefaultConfig(),
	}
}

func (rc RunConfig) iters(w workloads.Workload) int {
	n := int(float64(w.DefaultIters) * rc.Scale)
	if n < 2 {
		n = 2
	}
	return n
}

// Iters returns the iteration count rc's Scale implies for w — the
// sizing RunBenchmark applies. Exported so out-of-package callers (the
// teaserve job builder) construct programs byte-identical to a local
// harness run with the same configuration.
func (rc RunConfig) Iters(w workloads.Workload) int { return rc.iters(w) }

// BenchRun holds everything one simulation produced: the golden
// reference, every technique's profile, event counters, and the
// auxiliary statistics probes.
type BenchRun struct {
	Workload workloads.Workload
	Program  *program.Program
	Stats    *cpu.Stats

	Golden   *pics.Profile
	TEA      *pics.Profile
	NCITEA   *pics.Profile
	IBS      *pics.Profile
	SPE      *pics.Profile
	RIS      *pics.Profile
	Counters *profilers.Counters
	Events   *profilers.EventStats
	Stalls   *profilers.StallProbe

	// Errors records techniques whose probe failed during replay,
	// keyed by technique name. A failed technique's result is nil;
	// the remaining techniques are complete and trustworthy. The
	// fault-free path always leaves the map empty, and a technique the
	// run did not replay is never in it.
	Errors map[string]error
}

// Profile returns the named technique's profile ("golden", "tea",
// "nci-tea", "ibs", "spe" or "ris"): nil when the run did not replay
// the technique, when it failed, or when the name has no profile.
func (br *BenchRun) Profile(name string) *pics.Profile {
	switch name {
	case "golden":
		return br.Golden
	case "tea":
		return br.TEA
	case "nci-tea":
		return br.NCITEA
	case "ibs":
		return br.IBS
	case "spe":
		return br.SPE
	case "ris":
		return br.RIS
	}
	return nil
}

// Techniques returns the sampled techniques' profiles in evaluation
// order (IBS, SPE, RIS, NCI-TEA, TEA — the Figure 5 order).
func (br *BenchRun) Techniques() []*pics.Profile {
	return []*pics.Profile{br.IBS, br.SPE, br.RIS, br.NCITEA, br.TEA}
}

// RunBenchmark simulates one workload with every technique attached.
func RunBenchmark(w workloads.Workload, rc RunConfig) *BenchRun {
	return RunProgram(w, w.Build(rc.iters(w)), rc)
}

// technique is one evaluation technique: how to build its probe and
// where the finished probe's result lands in a BenchRun.
type technique struct {
	name string
	// build makes a fresh probe. A non-nil core wires it for live
	// attachment; with a nil core the TEA units accumulate against p
	// (the replay path).
	build func(c *cpu.CPU, p *program.Program, rc RunConfig) cpu.Probe
	// store files the result once attribution is complete (dense
	// accumulators flush lazily).
	store func(br *BenchRun, pr cpu.Probe)
}

// techniqueTable is the evaluation suite in construction order. Its
// names key BenchRun.Errors, BenchRun.Profile and the chaos harness's
// reports. Every sampled technique draws its own seed, so a replay of
// any subset is byte-identical to the same techniques in a full one.
var techniqueTable = []technique{
	{"golden", func(c *cpu.CPU, p *program.Program, _ RunConfig) cpu.Probe {
		return core.NewTEA(c, core.Config{Set: events.TEASet, EveryCycle: true, Prog: p})
	}, func(br *BenchRun, pr cpu.Probe) { br.Golden = profileOf(pr) }},
	{"tea", func(c *cpu.CPU, p *program.Program, rc RunConfig) cpu.Probe {
		cfg := core.DefaultConfig()
		cfg.IntervalCycles, cfg.JitterCycles, cfg.Seed, cfg.Prog = rc.Interval, rc.Jitter, rc.Seed, p
		return core.NewTEA(c, cfg)
	}, func(br *BenchRun, pr cpu.Probe) { br.TEA = profileOf(pr) }},
	{"nci-tea", func(_ *cpu.CPU, _ *program.Program, rc RunConfig) cpu.Probe {
		return profilers.NewNCITEA(rc.Interval, rc.Jitter, rc.Seed+1)
	}, func(br *BenchRun, pr cpu.Probe) { br.NCITEA = profileOf(pr) }},
	{"ibs", func(_ *cpu.CPU, _ *program.Program, rc RunConfig) cpu.Probe {
		return profilers.NewIBS(rc.Interval, rc.Jitter, rc.Seed+2)
	}, func(br *BenchRun, pr cpu.Probe) { br.IBS = profileOf(pr) }},
	{"spe", func(_ *cpu.CPU, _ *program.Program, rc RunConfig) cpu.Probe {
		return profilers.NewSPE(rc.Interval, rc.Jitter, rc.Seed+3)
	}, func(br *BenchRun, pr cpu.Probe) { br.SPE = profileOf(pr) }},
	{"ris", func(_ *cpu.CPU, _ *program.Program, rc RunConfig) cpu.Probe {
		return profilers.NewRIS(rc.Interval, rc.Jitter, rc.Seed+4)
	}, func(br *BenchRun, pr cpu.Probe) { br.RIS = profileOf(pr) }},
	{"counters", func(*cpu.CPU, *program.Program, RunConfig) cpu.Probe {
		return profilers.NewCounters()
	}, func(br *BenchRun, pr cpu.Probe) { br.Counters = pr.(*profilers.Counters) }},
	{"events", func(*cpu.CPU, *program.Program, RunConfig) cpu.Probe {
		return profilers.NewEventStats()
	}, func(br *BenchRun, pr cpu.Probe) { br.Events = pr.(*profilers.EventStats) }},
	{"stalls", func(*cpu.CPU, *program.Program, RunConfig) cpu.Probe {
		return profilers.NewStallProbe()
	}, func(br *BenchRun, pr cpu.Probe) { br.Stalls = pr.(*profilers.StallProbe) }},
}

// profileOf materializes a profile technique's PICS.
func profileOf(pr cpu.Probe) *pics.Profile {
	return pr.(interface{ Profile() *pics.Profile }).Profile()
}

// selectTechniques returns the table entries named, in table order.
// An unknown name is a typed ErrInvalidConfig.
func selectTechniques(w workloads.Workload, names []string) ([]technique, error) {
	for _, name := range names {
		if !slices.ContainsFunc(techniqueTable, func(t technique) bool { return t.name == name }) {
			return nil, simerr.New(simerr.ErrInvalidConfig, simerr.Snapshot{Workload: w.Name, Technique: name},
				"unknown technique %q", name)
		}
	}
	return slices.DeleteFunc(slices.Clone(techniqueTable), func(t technique) bool {
		return !slices.Contains(names, t.name)
	}), nil
}

// testExtraProbe, when non-nil, injects one extra named probe into the
// replay partition; each call must return a fresh probe. The
// panic-containment regression tests use it to prove a misbehaving
// probe cannot crash the process or void the other techniques'
// profiles.
var testExtraProbe func() (string, cpu.Probe)

// CaptureTrace runs the core exactly once with only the trace-capture
// probe attached and returns the encoded stream — the "simulate once"
// half of the paper's capture/replay methodology. The chaos harness
// mutates the returned bytes; ReplayCaptured consumes them.
func CaptureTrace(ctx context.Context, p *program.Program, rc RunConfig) ([]byte, *cpu.Stats, error) {
	return simulate(ctx, p, rc.Core)
}

// simulate is CaptureTrace for the core configuration alone, the only
// part of a RunConfig the captured stream depends on.
func simulate(ctx context.Context, p *program.Program, core cpu.Config) ([]byte, *cpu.Stats, error) {
	c := cpu.New(core, p)
	var buf bytes.Buffer
	tw := trace.NewWriter(&buf)
	c.Attach(tw)
	stats, err := c.RunContext(ctx)
	if err != nil {
		return nil, nil, err
	}
	if err := tw.Err(); err != nil {
		return nil, nil, simerr.Wrap(simerr.ErrInternal,
			simerr.Snapshot{Program: p.Name}, err, "in-memory trace capture failed")
	}
	addCodecCounters(tw.Counters())
	return buf.Bytes(), stats, nil
}

// ReplayCaptured replays an encoded trace to the full technique suite,
// partitioned across up to GOMAXPROCS goroutines; each group decodes
// the stream independently, so a single-threaded environment pays
// exactly one decode pass while parallel ones overlap the techniques.
// Replay is bit-identical to live attachment (see RunProgramLive and
// the equivalence test), so the profiles do not depend on grouping.
//
// Stream-level failures — corruption, truncation, cancellation — abort
// the whole replay with a typed error and no BenchRun. A failure inside
// one technique's probe only voids that technique (BenchRun.Errors);
// the remaining techniques still produce complete profiles.
func ReplayCaptured(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte) (*BenchRun, error) {
	return replay(ctx, w, p, rc, data, techniqueTable)
}

// ReplayTechniques is ReplayCaptured for the named techniques alone:
// only their probes are built and attached, so the cost scales with
// the list. Each profile is byte-identical to the same technique's in
// a full replay. Techniques not named stay nil and absent from Errors;
// an unknown name is a typed ErrInvalidConfig.
func ReplayTechniques(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte, names []string) (*BenchRun, error) {
	sel, err := selectTechniques(w, names)
	if err != nil {
		return nil, err
	}
	return replay(ctx, w, p, rc, data, sel)
}

// replay attaches raw probes for sel, one replay group per goroutine,
// with a single recover per group: the per-hook path carries no guard.
// A group that panicked is replayed again one technique at a time,
// each from a fresh probe under its own recover, so only a probe that
// panics again loses its technique and the others give the same bytes.
// The rare fault path pays for isolation; the hot path does not.
func replay(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte, sel []technique) (*BenchRun, error) {
	if testExtraProbe != nil {
		name, _ := testExtraProbe()
		sel = append(slices.Clip(sel), technique{name: name, build: func(*cpu.CPU, *program.Program, RunConfig) cpu.Probe {
			_, pr := testExtraProbe()
			return pr
		}})
	}
	probes := make([]cpu.Probe, len(sel))
	for i, t := range sel {
		probes[i] = t.build(nil, p, rc)
	}

	// At least one group, so a replay of no techniques still checks
	// the stream.
	par := max(1, min(runtime.GOMAXPROCS(0), len(sel)))
	streamErrs := make([]error, par)
	panicked := make([]bool, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		group := make([]cpu.Probe, 0, (len(sel)+par-1)/par)
		for i := g; i < len(sel); i += par {
			group = append(group, probes[i])
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { panicked[g] = recover() != nil }()
			_, streamErrs[g] = trace.ReplayBytes(ctx, data, group...)
		}()
	}
	wg.Wait()
	// Every group decodes the same bytes, so a decode failure (or a
	// cancellation) in any group condemns the stream for all of them.
	for _, err := range streamErrs {
		if err != nil {
			return nil, err
		}
	}

	br := &BenchRun{Workload: w, Program: p, Errors: map[string]error{}}
	for i, t := range sel {
		if !panicked[i%par] {
			continue
		}
		pr, perr, err := replayAlone(ctx, w, p, rc, data, t)
		if err != nil {
			return nil, err
		}
		if perr != nil {
			br.Errors[t.name] = perr
		}
		probes[i] = pr
	}
	if len(br.Errors) > 0 {
		// A probe that panics on every pass never reaches the end of
		// the stream. Decode it once alone, so a corrupt stream still
		// fails the whole replay instead of surfacing as probe errors.
		if _, err := trace.ReplayBytes(ctx, data); err != nil {
			return nil, err
		}
	}
	collect(br, sel, probes)
	return br, nil
}

// replayAlone replays a fresh probe of t by itself under its own
// recover. A panic comes back as t's typed error; a stream error fails
// the replay.
func replayAlone(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, data []byte, t technique) (pr cpu.Probe, perr, err error) {
	pr = t.build(nil, p, rc)
	defer func() {
		if v := recover(); v != nil {
			perr = simerr.FromPanic(v, simerr.Snapshot{Workload: w.Name, Technique: t.name})
		}
	}()
	_, err = trace.ReplayBytes(ctx, data, pr)
	return pr, nil, err
}

// collect files every technique's result into br, skipping any
// technique recorded in br.Errors.
func collect(br *BenchRun, sel []technique, probes []cpu.Probe) {
	for i, t := range sel {
		if _, bad := br.Errors[t.name]; !bad && t.store != nil {
			t.store(br, probes[i])
		}
	}
}

// RunProgramContext is the panic-free, cancellable entry point: it
// captures the program's trace once — served from the content-addressed
// trace store when any prior run already captured this (program, core)
// pair — and replays it to every technique out-of-band (the paper's
// single-trace methodology, Section 4), honoring ctx in both halves.
// Every failure mode — runaway programs, watchdog-detected deadlock,
// invalid programs, corrupt streams, cancellation — comes back as a
// typed *simerr.Error; a cancelled or failed run returns a nil
// BenchRun, never a partial profile.
func RunProgramContext(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig) (*BenchRun, error) {
	return run(ctx, w, p, rc, techniqueTable)
}

// RunTechniques is RunProgramContext replaying only the named
// techniques (see ReplayTechniques); the capture is the same. An
// unknown name fails before anything is simulated.
func RunTechniques(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, names []string) (*BenchRun, error) {
	sel, err := selectTechniques(w, names)
	if err != nil {
		return nil, err
	}
	return run(ctx, w, p, rc, sel)
}

// run captures p's trace once, or takes it from the trace store, and
// replays it to sel.
func run(ctx context.Context, w workloads.Workload, p *program.Program, rc RunConfig, sel []technique) (br *BenchRun, err error) {
	defer func() {
		if err != nil {
			br = nil
		}
	}()
	defer simerr.Recover(&err, simerr.Snapshot{Workload: w.Name, Program: p.Name})
	data, stats, err := capturedTrace(ctx, p, rc.Core)
	if err != nil {
		return nil, err
	}
	br, err = replay(ctx, w, p, rc, data, sel)
	if err != nil {
		return nil, err
	}
	br.Stats = stats
	return br, nil
}

// RunProgram is RunBenchmark for an explicitly built program (used by
// the case studies, which vary prefetch distance or fast-math). It is
// the crash-loudly convenience wrapper over RunProgramContext for the
// experiment harness, where any failure is a bug in the repo itself:
// it panics with the typed error, including when a single technique
// failed during replay.
//
//tealint:ctxroot crash-loudly harness entry point with no caller context; cancellable callers use RunProgramContext
func RunProgram(w workloads.Workload, p *program.Program, rc RunConfig) *BenchRun {
	br, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		panic(asSimErr(err, w.Name))
	}
	for _, t := range techniqueTable {
		if terr := br.Errors[t.name]; terr != nil {
			panic(asSimErr(terr, w.Name))
		}
	}
	return br
}

// asSimErr surfaces the typed error inside err, wrapping foreign errors
// so boundary recovery always sees a *simerr.Error.
func asSimErr(err error, workload string) *simerr.Error {
	var se *simerr.Error
	if errors.As(err, &se) {
		return se
	}
	return simerr.Wrap(simerr.ErrInternal, simerr.Snapshot{Workload: workload}, err, "run failed")
}

// RunProgramLive attaches every technique directly to the core — the
// pre-capture evaluation path. The replay path must produce profiles
// byte-identical to this one; the internal/trace equivalence test pins
// that invariant across the whole suite.
func RunProgramLive(w workloads.Workload, p *program.Program, rc RunConfig) *BenchRun {
	c := cpu.New(rc.Core, p)
	probes := make([]cpu.Probe, len(techniqueTable))
	for i, t := range techniqueTable {
		probes[i] = t.build(c, p, rc)
		c.Attach(probes[i])
	}
	br := &BenchRun{Workload: w, Program: p, Errors: map[string]error{}}
	br.Stats = c.Run()
	collect(br, techniqueTable, probes)
	return br
}

// RunSuite runs the whole benchmark suite in two scheduled phases:
// every distinct capture first (parallel across workloads, deduplicated
// through the trace store), then every replay from the shared bytes.
// Each simulation is single-threaded and seeded, so results are
// identical to a serial run — and to a run that hit the cache.
//
//tealint:ctxroot suite entry point invoked by the experiment CLIs, which have no context to thread
func RunSuite(rc RunConfig) []*BenchRun {
	jobs := suiteJobs(rc)
	if err := scheduleCaptures(context.Background(), jobs); err != nil {
		panic(asSimErr(err, ""))
	}
	runs := make([]*BenchRun, len(jobs))
	par := runtime.GOMAXPROCS(0)
	if par > len(jobs) {
		par = len(jobs)
	}
	var wg sync.WaitGroup
	work := make(chan int)
	for p := 0; p < par; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				runs[i] = RunProgram(jobs[i].w, jobs[i].p, rc)
			}
		}()
	}
	for i := range jobs {
		work <- i
	}
	close(work)
	wg.Wait()
	return runs
}
