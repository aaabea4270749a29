package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/events"
	"repro/internal/pics"
	"repro/internal/profilers"
	"repro/internal/program"
	"repro/internal/trace"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

// input is one distinct program a workload runs: what the ledger
// re-drives layer by layer, and what the output checks recompute.
type input struct {
	job        int64
	w          workloads.Workload
	p          *program.Program
	rc         analysis.RunConfig
	techniques []string
}

// probeNames are the nine replay probes in the order the analysis
// package builds them; probeMetrics are their per-layer metric names.
var (
	probeNames   = []string{"golden", "tea", "nci-tea", "ibs", "spe", "ris", "counters", "events", "stalls"}
	probeMetrics = []string{
		"core.golden_ms", "core.tea_ms", "profilers.nci-tea_ms", "profilers.ibs_ms",
		"profilers.spe_ms", "profilers.ris_ms", "profilers.counters_ms",
		"profilers.events_ms", "profilers.stalls_ms",
	}
)

// newProbe builds replay probe i configured exactly as the analysis
// package configures it for rc.
func newProbe(i int, p *program.Program, rc analysis.RunConfig) cpu.Probe {
	switch probeNames[i] {
	case "golden":
		return core.NewTEA(nil, core.Config{Set: events.TEASet, EveryCycle: true, Prog: p})
	case "tea":
		cfg := core.DefaultConfig()
		cfg.IntervalCycles, cfg.JitterCycles, cfg.Seed, cfg.Prog = rc.Interval, rc.Jitter, rc.Seed, p
		return core.NewTEA(nil, cfg)
	case "nci-tea":
		return profilers.NewNCITEA(rc.Interval, rc.Jitter, rc.Seed+1)
	case "ibs":
		return profilers.NewIBS(rc.Interval, rc.Jitter, rc.Seed+2)
	case "spe":
		return profilers.NewSPE(rc.Interval, rc.Jitter, rc.Seed+3)
	case "ris":
		return profilers.NewRIS(rc.Interval, rc.Jitter, rc.Seed+4)
	case "counters":
		return profilers.NewCounters()
	case "events":
		return profilers.NewEventStats()
	default:
		return profilers.NewStallProbe()
	}
}

// profileOf returns the named technique's profile from a finished run.
func profileOf(br *analysis.BenchRun, technique string) *pics.Profile {
	switch technique {
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

// render writes the requested techniques' profiles as the service
// does, returning the documents by technique.
func render(br *analysis.BenchRun, techniques []string) (map[string][]byte, error) {
	docs := make(map[string][]byte, len(techniques))
	for _, t := range techniques {
		prof := profileOf(br, t)
		if prof == nil {
			return nil, fmt.Errorf("run of %s holds no %q profile", br.Workload.Name, t)
		}
		var buf bytes.Buffer
		if err := prof.WriteJSON(&buf); err != nil {
			return nil, err
		}
		docs[t] = buf.Bytes()
	}
	return docs, nil
}

// layerCost is what re-driving one input through each layer measured.
type layerCost struct {
	cycles, committed, records, traceBytes, profileBytes uint64

	bare, capture, decode, replay, render, get, put time.Duration
	probes                                          [9]time.Duration
}

// storeGets is how many memory-tier gets one get timing averages over;
// a single get is far below the clock's resolution.
const storeGets = 1000

// redrive runs one input through every layer separately, serially,
// with a span around each call: bare simulation, capture (simulation
// plus v4 encode), memory-tier get and disk-tier put, decode, each
// probe alone, the full nine-probe replay, and the profile render.
// Disk-tier entries go under dir.
func redrive(ctx context.Context, tr *tracer, in input, dir string) (layerCost, error) {
	var c layerCost
	root := tr.start("ledger.input", 0, in.job)
	defer root.end()
	at := func(name string) span { return tr.start(name, root.id, in.job) }

	sp := at("cpu.run")
	stats, err := cpu.New(in.rc.Core, in.p).RunContext(ctx)
	c.bare = sp.end()
	if err != nil {
		return c, err
	}
	c.cycles, c.committed = stats.Cycles, stats.Committed

	before := analysis.CodecTotalStats().Records
	sp = at("analysis.capture")
	data, _, err := analysis.CaptureTrace(ctx, in.p, in.rc)
	c.capture = sp.end()
	if err != nil {
		return c, err
	}
	c.records = analysis.CodecTotalStats().Records - before
	c.traceBytes = uint64(len(data))

	key := tracestore.Key(sha256.Sum256(data))
	mem := tracestore.New(0, "", nil)
	mem.Put(key, data)
	sp = at("tracestore.get")
	for i := 0; i < storeGets; i++ {
		if _, ok := mem.Get(key); !ok {
			return c, fmt.Errorf("memory tier lost the entry of %s", in.p.Name)
		}
	}
	c.get = sp.end() / storeGets
	sp = at("tracestore.put")
	tracestore.New(0, dir, nil).Put(key, data)
	c.put = sp.end()

	// Decode alone, three times: the per-probe costs subtract its
	// median, so its noise should not land on one probe.
	var decodes []float64
	for i := 0; i < 3; i++ {
		sp = at("trace.decode")
		_, err := trace.ReplayBytes(ctx, data)
		decodes = append(decodes, float64(sp.end()))
		if err != nil {
			return c, err
		}
	}
	c.decode = time.Duration(median(decodes))
	for i, name := range probeNames {
		pr := newProbe(i, in.p, in.rc)
		sp = at("probe." + name)
		_, err := trace.ReplayBytes(ctx, data, pr)
		c.probes[i] = sp.end() - c.decode
		if err != nil {
			return c, err
		}
	}

	sp = at("analysis.replay")
	br, err := analysis.ReplayCaptured(ctx, in.w, in.p, in.rc, data)
	c.replay = sp.end()
	if err != nil {
		return c, err
	}
	if len(br.Errors) > 0 {
		return c, fmt.Errorf("replay of %s: technique errors %v", in.p.Name, br.Errors)
	}

	sp = at("pics.render")
	docs, err := render(br, in.techniques)
	c.render = sp.end()
	if err != nil {
		return c, err
	}
	for _, d := range docs {
		c.profileBytes += uint64(len(d))
	}
	return c, nil
}

// redriveAll re-drives every input serially, in order.
func redriveAll(ctx context.Context, tr *tracer, ins []input, dir string) ([]layerCost, error) {
	costs := make([]layerCost, len(ins))
	for i, in := range ins {
		c, err := redrive(ctx, tr, in, dir)
		if err != nil {
			return nil, fmt.Errorf("re-driving %s: %w", in.p.Name, err)
		}
		costs[i] = c
	}
	return costs, nil
}

// layerMetrics stores the ledger's per-layer metrics. Times are per
// operation: the sum over the inputs divided by ops (1 when one
// operation runs every input, as a figure does). Counts are exact
// totals over the inputs, and rates are total work over total time.
func layerMetrics(values map[string]float64, costs []layerCost, ops float64) {
	var t layerCost
	for _, c := range costs {
		t.cycles += c.cycles
		t.committed += c.committed
		t.records += c.records
		t.traceBytes += c.traceBytes
		t.profileBytes += c.profileBytes
		t.bare += c.bare
		t.capture += c.capture
		t.decode += c.decode
		t.replay += c.replay
		t.render += c.render
		t.get += c.get
		t.put += c.put
		for i := range t.probes {
			t.probes[i] += c.probes[i]
		}
	}
	n := float64(max(len(costs), 1))
	values["cpu.ns_per_cycle"] = float64(t.bare) / float64(t.cycles)
	values["cpu.minst_per_s"] = float64(t.committed) / t.bare.Seconds() / 1e6
	values["cpu.cycles"] = float64(t.cycles)
	values["cpu.committed"] = float64(t.committed)
	values["trace.encode_ns_per_record"] = float64(t.capture-t.bare) / float64(t.records)
	values["trace.decode_ns_per_record"] = float64(t.decode) / float64(t.records)
	values["trace.records"] = float64(t.records)
	values["trace.bytes_per_cycle"] = float64(t.traceBytes) / float64(t.cycles)
	values["analysis.capture_ms"] = ms(t.capture) / ops
	values["analysis.replay_ms"] = ms(t.replay) / ops
	for i, name := range probeMetrics {
		values[name] = ms(t.probes[i]) / ops
	}
	values["pics.render_ms"] = ms(t.render) / ops
	values["pics.profile_bytes"] = float64(t.profileBytes)
	values["tracestore.get_us"] = float64(t.get) / float64(time.Microsecond) / n
	values["tracestore.put_ms"] = ms(t.put) / ops
	values["tracestore.put_bytes"] = float64(t.traceBytes)
}

// parallel runs f(0..n-1) on par workers and returns once all are done.
func parallel(n, par int, f func(i int)) {
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
}
