package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/program"
	"repro/internal/serve"
	"repro/internal/tracestore"
	"repro/internal/workloads"
)

const (
	// hitScale is the committed serve-bench scale of serve_hit jobs.
	hitScale = 0.05
	// missLedgerInputs is how many serve_miss inputs, from the start of
	// the seeded sequence, the traced run re-drives.
	missLedgerInputs = 12
	// A serve_miss program runs missScaleLo to missScaleHi of its
	// workload's evaluation iteration count.
	missScaleLo, missScaleHi = 0.02, 0.06
	// Set-up runs warmRounds+1 jobs per serve_hit kind to warm the
	// service before it is measured.
	warmRounds = 8
	// tenantCount tenants share the default per-tenant quota (50 jobs/s
	// each), so the service admits up to 400 jobs/s before any 429.
	tenantCount = 8
)

// hitKinds is the committed serve-bench workload mix.
var hitKinds = []string{"bwaves", "exchange2", "mcf", "x264"}

// clientCount is the closed loop's client goroutines, each with one
// connection: at most two, and never more than the host's CPUs.
func clientCount() int { return min(2, runtime.NumCPU()) }

// jobInput is one generated request. Its program is built only when
// a check or the ledger needs it: the sequence can run to thousands of
// requests, and an mcf program alone holds about 1 MiB.
type jobInput struct {
	input
	// key names the program; requests with equal keys profile the
	// same program.
	key  string
	body []byte
	// iters is the inline program's iteration count (0 for a suite
	// workload request).
	iters int
}

// built returns the input with its program built as the service
// builds it.
func (in jobInput) built() input {
	out := in.input
	if in.iters > 0 {
		out.p = inlineProgram(in.w, in.iters)
	} else {
		out.p = in.w.Build(in.rc.Iters(in.w))
	}
	return out
}

// generator draws the request sequence of a serve workload from its
// seed. The i-th request depends only on the seed and i. Kinds are
// drawn as shuffled rounds — each round holds every kind once, in a
// seeded order — so every seed sends the same mix and the seeds differ
// in order, iteration counts and tenants.
type generator struct {
	mu    sync.Mutex
	rng   *rand.Rand
	kinds []workloads.Workload
	miss  bool
	round []int
	used  map[string]bool
	seq   []jobInput
}

func newGenerator(seed uint64, miss bool) (*generator, error) {
	g := &generator{rng: rand.New(rand.NewPCG(seed, 0x7ea)), miss: miss, used: map[string]bool{}}
	if miss {
		g.kinds = workloads.All()
		return g, nil
	}
	for _, k := range hitKinds {
		w, err := workloads.ByName(k)
		if err != nil {
			return nil, err
		}
		g.kinds = append(g.kinds, w)
	}
	return g, nil
}

// at returns request i, drawing the sequence up to it.
func (g *generator) at(i int) (jobInput, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for len(g.seq) <= i {
		in, err := g.draw(int64(len(g.seq)))
		if err != nil {
			return jobInput{}, err
		}
		g.seq = append(g.seq, in)
	}
	return g.seq[i], nil
}

// missTries bounds the iteration-count draws for one kind; a kind
// whose range is used up (gcc's holds one count) is skipped.
const missTries = 64

func (g *generator) draw(idx int64) (jobInput, error) {
	tenant := fmt.Sprintf("tenant-%d", g.rng.IntN(tenantCount))
	for skipped := 0; skipped <= len(g.kinds); skipped++ {
		if len(g.round) == 0 {
			g.round = g.rng.Perm(len(g.kinds))
		}
		w := g.kinds[g.round[0]]
		g.round = g.round[1:]
		if !g.miss {
			return hitInput(idx, tenant, w.Name)
		}
		for try := 0; try < missTries; try++ {
			u := missScaleLo + (missScaleHi-missScaleLo)*g.rng.Float64()
			iters := max(2, int(math.Round(float64(w.DefaultIters)*u)))
			key := w.Name + "/" + strconv.Itoa(iters)
			if !g.used[key] {
				g.used[key] = true
				return missInput(idx, tenant, w, iters)
			}
		}
	}
	return jobInput{}, fmt.Errorf("request %d: every kind's iteration range is used up", idx)
}

// hitInput is a suite-workload request at the serve-bench scale for
// the tea profile.
func hitInput(idx int64, tenant, kind string) (jobInput, error) {
	w, err := workloads.ByName(kind)
	if err != nil {
		return jobInput{}, err
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = hitScale
	scale := hitScale
	req := serve.JobRequest{Tenant: tenant, Workload: kind, Config: &serve.ConfigSpec{Scale: &scale}, Techniques: []string{"tea"}}
	in := jobInput{input: input{job: idx, w: w, rc: rc, techniques: req.Techniques}, key: kind}
	in.body, err = json.Marshal(req)
	return in, err
}

// missInput is an inline-program request for every profile technique.
func missInput(idx int64, tenant string, w workloads.Workload, iters int) (jobInput, error) {
	req := serve.JobRequest{Tenant: tenant, Program: &serve.ProgramSpec{Kind: w.Name, Iters: iters}, Techniques: serve.AllTechniques}
	in := jobInput{input: input{job: idx, w: w, rc: analysis.DefaultRunConfig(), techniques: req.Techniques},
		key: w.Name + "/" + strconv.Itoa(iters), iters: iters}
	var err error
	in.body, err = json.Marshal(req)
	return in, err
}

// inlineProgram builds an inline program as the service does.
func inlineProgram(w workloads.Workload, iters int) *program.Program {
	switch w.Name {
	case "lbm":
		return workloads.LBM(iters, 0)
	case "nab":
		return workloads.NAB(iters, false)
	}
	return w.Build(iters)
}

// service is one teaserve instance on a loopback listener, with its
// journal and trace-cache directories in a temporary directory.
type service struct {
	fs     *timingFS
	base   string
	client *http.Client
}

// withService starts a service, runs body against it, then shuts the
// listener and the workers down, waits for both, closes the journal
// and removes the service's directory.
func withService(ctx context.Context, body func(*service) error) error {
	dir, err := os.MkdirTemp(workDir, "serve-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, filepath.Join(dir, "tracecache")))
	s := &service{fs: &timingFS{}}
	cfg := serve.DefaultConfig()
	cfg.JournalDir = filepath.Join(dir, "journal")
	cfg.JournalFS = s.fs
	// At the default retention (16384 finished jobs) every finished job
	// pins its built program, so resident memory would grow with the
	// number of jobs a run completes. 256 jobs are retained here, so
	// peak_rss_mb reads a steady state.
	cfg.KeepFinished = 256
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.base = "http://" + ln.Addr().String()
	n := clientCount()
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	defer s.client.CloseIdleConnections()

	hs := &http.Server{Handler: srv.Handler()}
	runCtx, stop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	served := make(chan error, 1)
	wg.Add(2)
	go func() {
		defer wg.Done()
		srv.Run(runCtx)
	}()
	go func() {
		defer wg.Done()
		served <- hs.Serve(ln)
	}()

	err = body(s)
	sctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if serr := hs.Shutdown(sctx); err == nil {
		err = serr
	}
	stop()
	wg.Wait()
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// jobResult is what the client saw of one job.
type jobResult struct {
	idx      int64
	key      string
	err      error
	rejected bool
	traced   bool

	latency, submit, fetch time.Duration
	// done is when the last profile byte arrived.
	done           time.Time
	queueMs, runMs float64
	digests        map[string][sha256.Size]byte
}

// get issues one GET and returns the whole body of a 200 response.
func (s *service) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, err
}

// doJob runs one job as a teaserve caller does: submit, wait on the
// stream for the terminal record, then fetch each profile's bytes.
func (s *service) doJob(ctx context.Context, tr *tracer, in jobInput) jobResult {
	r := jobResult{idx: in.job, key: in.key, traced: tr != nil}
	root := tr.start("job", 0, in.job)
	sp := tr.start("http.submit", root.id, in.job)
	id, retry, err := s.submit(ctx, in.body)
	r.submit = sp.end()
	if err != nil {
		root.end()
		r.err, r.rejected = err, retry > 0
		if retry > 0 {
			// Honour Retry-After before this client's next request.
			select {
			case <-ctx.Done():
			case <-time.After(min(retry, time.Second)):
			}
		}
		return r
	}

	sp = tr.start("http.stream", root.id, in.job)
	view, err := s.stream(ctx, id)
	sp.end()
	if err != nil {
		root.end()
		r.err = err
		return r
	}
	r.queueMs, r.runMs = view.QueueMs, view.RunMs

	sp = tr.start("http.profiles", root.id, in.job)
	r.digests = make(map[string][sha256.Size]byte, len(in.techniques))
	for _, t := range in.techniques {
		doc, err := s.get(ctx, "/v1/jobs/"+id+"/profiles/"+t)
		if err != nil {
			r.err = err
			break
		}
		r.digests[t] = sha256.Sum256(doc)
	}
	r.fetch = sp.end()
	r.latency = root.end()
	r.done = time.Now()
	return r
}

// submit POSTs one job. A 429 comes back as an error with the
// Retry-After delay.
func (s *service) submit(ctx context.Context, body []byte) (id string, retry time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var sr serve.SubmitResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return "", 0, err
		}
		return sr.ID, 0, nil
	case http.StatusTooManyRequests:
		secs, _ := strconv.Atoi(resp.Header.Get("Retry-After")) // absent: retry at once
		return "", time.Duration(max(secs, 0))*time.Second + time.Millisecond, fmt.Errorf("POST: %s", resp.Status)
	}
	return "", 0, fmt.Errorf("POST: %s: %s", resp.Status, bytes.TrimSpace(raw))
}

// stream reads the job's NDJSON stream up to its end record.
func (s *service) stream(ctx context.Context, id string) (*serve.JobView, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream %s: %s", id, resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var rec struct {
			Type string         `json:"type"`
			Job  *serve.JobView `json:"job"`
		}
		if err := dec.Decode(&rec); err != nil {
			return nil, fmt.Errorf("stream %s: %w", id, err)
		}
		if rec.Type != "end" {
			continue
		}
		if rec.Job == nil || rec.Job.Status != serve.StatusDone {
			return nil, fmt.Errorf("job %s ended without a done record", id)
		}
		// Drain the body so the connection is reused.
		_, err := io.Copy(io.Discard, resp.Body)
		return rec.Job, err
	}
}

// drive runs the closed loop for budget: each client takes the next
// request of the sequence, runs it to its last profile byte, and only
// then takes another.
func (s *service) drive(ctx context.Context, tr *tracer, gen *generator, cursor *int, budget time.Duration) ([]jobResult, error) {
	deadline := time.Now().Add(budget)
	var (
		mu      sync.Mutex
		out     []jobResult
		firstEr error
		wg      sync.WaitGroup
	)
	for c := 0; c < clientCount(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				mu.Lock()
				i := *cursor
				*cursor++
				mu.Unlock()
				in, err := gen.at(i)
				if err != nil {
					mu.Lock()
					firstEr = err
					mu.Unlock()
					return
				}
				r := s.doJob(ctx, tr, in)
				mu.Lock()
				out = append(out, r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, firstEr
}

// setupReps is how many times a run sets up; set-up time is the
// median, and the last set-up is the one measured.
const setupReps = 3

// warmUp is a serve workload's set-up work on a fresh service.
// serve_hit captures each distinct input once, then serves each
// warmRounds times more, so the service is warm and every measured job
// is a store hit. serve_miss warms the path with as many programs of
// the same size class that the sequence never draws: their iteration
// counts lie below missScaleLo.
func warmUp(ctx context.Context, s *service, miss bool) error {
	var warm []jobInput
	for i, kind := range hitKinds {
		if !miss {
			in, err := hitInput(int64(-1-i), "setup", kind)
			if err == nil {
				err = s.doJob(ctx, nil, in).err
			}
			if err != nil {
				return err
			}
			for r := 0; r < warmRounds; r++ {
				warm = append(warm, in)
			}
			continue
		}
		w, err := workloads.ByName(kind)
		if err != nil {
			return err
		}
		for r := 0; r <= warmRounds; r++ {
			iters := int(float64(w.DefaultIters)*missScaleLo) - 1 - r
			in, err := missInput(int64(-1-len(warm)), "setup", w, iters)
			if err != nil {
				return err
			}
			warm = append(warm, in)
		}
	}
	errs := make([]error, len(warm))
	parallel(len(warm), clientCount(), func(i int) { errs[i] = s.doJob(ctx, nil, warm[i]).err })
	return errors.Join(errs...)
}

// phase is what a serve workload's measured phase leaves for the
// checks and the ledger.
type phase struct {
	results              []jobResult
	tr                   *tracer
	rt, rtEnd            goRuntime
	start                time.Time
	rss                  float64
	store0, store1       tracestore.Stats
	captures0, captures1 uint64
	journal0, journal1   journalTotals
	syncs                []float64
}

// measure runs the measured phase: untraced for the whole time, or in
// traced and untraced slices that alternate, traced first, so the
// first requests of the sequence — the ones the ledger re-drives — are
// traced.
func (s *service) measure(ctx context.Context, o options, gen *generator) (*phase, error) {
	ph := &phase{store0: analysis.TraceStore().Snapshot(), captures0: analysis.CaptureCount(), journal0: s.fs.totals()}
	ph.rt = readGoRuntime()
	cursor := 0
	var err error
	ph.start = time.Now()
	if !o.trace {
		ph.results, err = s.drive(ctx, nil, gen, &cursor, o.seconds)
	} else {
		ph.tr = newTracer()
		for i := 0; i < 4 && err == nil; i++ {
			var part []jobResult
			if i%2 == 0 {
				part, err = s.drive(ctx, ph.tr, gen, &cursor, o.seconds/4)
			} else {
				part, err = s.drive(ctx, nil, gen, &cursor, o.seconds/4)
			}
			ph.results = append(ph.results, part...)
		}
	}
	if err != nil {
		return nil, err
	}
	ph.rtEnd = readGoRuntime()
	if ph.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	ph.store1, ph.captures1, ph.journal1 = analysis.TraceStore().Snapshot(), analysis.CaptureCount(), s.fs.totals()
	ph.syncs = s.fs.syncsSince(ph.journal0)
	return ph, nil
}

// runServe drives serve_hit (miss false) or serve_miss.
func runServe(ctx context.Context, o options, miss bool) (*report, error) {
	rep := newReport()
	gen, err := newGenerator(o.seed, miss)
	if err != nil {
		return nil, err
	}
	var ph *phase
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		err := withService(ctx, func(s *service) error {
			if err := warmUp(ctx, s, miss); err != nil {
				return fmt.Errorf("set-up job: %w", err)
			}
			setupS = append(setupS, time.Since(t0).Seconds())
			if i < setupReps-1 {
				return nil
			}
			var err error
			ph, err = s.measure(ctx, o, gen)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	rep.values["setup_s"] = median(setupS)
	results, tr := ph.results, ph.tr

	var lat, queue, run, httpMs, traced, plain []float64
	rejected := 0
	for _, r := range results {
		rep.attempted++
		if r.err != nil {
			if r.rejected {
				rejected++
			}
			rep.fail("job %d (%s): %v", r.idx, r.key, r.err)
			continue
		}
		l := ms(r.latency)
		lat = append(lat, l)
		queue = append(queue, r.queueMs)
		run = append(run, r.runMs)
		httpMs = append(httpMs, l-r.queueMs-r.runMs)
		if r.traced {
			traced = append(traced, l)
		} else {
			plain = append(plain, l)
		}
	}
	if len(lat) == 0 {
		return nil, fmt.Errorf("no job completed: %v", rep.mismatches)
	}
	windowed(rep.values, results, ph.start, o.seconds)
	rep.values["peak_rss_mb"] = ph.rss

	if err := verifyServed(ctx, rep, results, gen); err != nil {
		return nil, err
	}
	if !o.trace {
		return rep, nil
	}

	jobs := float64(len(lat))
	ph.rt.perOp(rep.values, ph.rtEnd, len(lat))
	rep.values["serve.queue_ms"] = median(queue)
	rep.values["serve.run_ms"] = median(run)
	rep.values["serve.http_ms"] = median(httpMs)
	rep.values["serve.rejected"] = float64(rejected)
	rep.values["journal.sync_ms"] = median(ph.syncs)
	rep.values["journal.syncs_per_job"] = float64(ph.journal1.syncs-ph.journal0.syncs) / jobs
	rep.values["journal.bytes_per_job"] = float64(ph.journal1.bytes-ph.journal0.bytes) / jobs
	hits := (ph.store1.Hits + ph.store1.DiskHits) - (ph.store0.Hits + ph.store0.DiskHits)
	lookups := hits + ph.store1.Misses - ph.store0.Misses
	rep.values["tracestore.hit_ratio"] = float64(hits) / float64(max(lookups, 1))
	rep.values["analysis.captures"] = float64(ph.captures1-ph.captures0) / jobs
	techniques := 1
	if miss {
		techniques = len(serve.AllTechniques)
	}
	rep.values["analysis.replay_useful_ratio"] = float64(techniques) / float64(len(probeNames))

	// The ledger's inputs: the four distinct serve_hit programs, or the
	// first serve_miss requests of the sequence.
	var ins []jobInput
	if miss {
		for i := 0; i < missLedgerInputs; i++ {
			in, err := gen.at(i)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
	} else {
		for i, kind := range hitKinds {
			in, err := hitInput(int64(-1-i), "", kind)
			if err != nil {
				return nil, err
			}
			ins = append(ins, in)
		}
	}
	dir, err := os.MkdirTemp(workDir, "ledger-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	plainIns := make([]input, len(ins))
	for i, in := range ins {
		plainIns[i] = in.built()
	}
	costs, err := redriveAll(ctx, tr, plainIns, dir)
	if err != nil {
		return nil, err
	}
	layerMetrics(rep.values, costs, float64(len(costs)))

	// Ledger of one job along its blocking steps: the submit round
	// trip (which includes the submitted record's fsync), the queue
	// wait, the running record's fsync, the store hit or the capture
	// and disk put, the nine-probe replay, the render, and the profile
	// fetches. What the client saw beyond their sum is unaccounted.
	byKey := map[string]layerCost{}
	for i, in := range ins {
		byKey[in.key] = costs[i]
	}
	syncMs := median(ph.syncs)
	var seen, covered float64
	for _, r := range results {
		c, ok := byKey[r.key]
		if r.err != nil || !r.traced || !ok {
			continue
		}
		store := c.get
		if miss {
			store = c.capture + c.put
		}
		seen += ms(r.latency)
		covered += ms(r.submit) + r.queueMs + syncMs + ms(store+c.replay+c.render) + ms(r.fetch)
	}
	if seen == 0 {
		return nil, errors.New("no traced job ran a re-driven input")
	}
	rep.values["ledger.unaccounted_pct"] = 100 * (seen - covered) / seen
	rep.values["ledger.trace_overhead_pct"] = 100 * (median(traced) - median(plain)) / median(plain)
	rep.spans = tr.records()
	return rep, nil
}

// windows is how many equal windows an untraced run's measured time is
// cut into; the faster half of them are timed.
const windows = 20

// windowed stores the end-to-end job metrics of a run. The measured
// time is cut into equal windows, and the half of them in which the
// most jobs finished are kept: interference from other tenants of the
// host only ever slows a window down, so the faster half is the least
// disturbed. The metrics cover the jobs that finished in the kept
// windows: their throughput, p50 and p90. A change that slows every job
// shows in full; a stall that hits fewer than half the windows does
// not. Jobs finishing after the measured time are checked but not
// timed.
func windowed(values map[string]float64, results []jobResult, start time.Time, measured time.Duration) {
	width := measured / windows
	lat := make([][]float64, windows)
	for _, r := range results {
		w := int(r.done.Sub(start) / width)
		if r.err == nil && w < windows {
			lat[w] = append(lat[w], ms(r.latency))
		}
	}
	sort.SliceStable(lat, func(i, j int) bool { return len(lat[i]) > len(lat[j]) })
	var kept []float64
	for _, l := range lat[:windows/2] {
		kept = append(kept, l...)
	}
	values["jobs_per_s"] = float64(len(kept)) / (windows / 2 * width.Seconds())
	values["job_p50_ms"] = median(kept)
	values["job_p90_ms"] = quantile(kept, 0.9)
}

// verifyServed recomputes every distinct served program with
// analysis.RunProgramContext on a fresh memory-only trace store —
// outside the measured window — and checks each served profile is
// byte-identical to pics.WriteJSON of the recomputed run.
func verifyServed(ctx context.Context, rep *report, results []jobResult, gen *generator) error {
	analysis.SetTraceStore(analysis.NewTraceStore(analysis.DefaultStoreBudget, ""))
	var ins []input
	index := map[string]int{}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		if _, ok := index[r.key]; ok {
			continue
		}
		in, err := gen.at(int(r.idx))
		if err != nil {
			return err
		}
		index[r.key] = len(ins)
		ins = append(ins, in.built())
	}
	refs := make([]map[string][sha256.Size]byte, len(ins))
	errs := make([]error, len(ins))
	parallel(len(ins), clientCount(), func(i int) {
		br, err := analysis.RunProgramContext(ctx, ins[i].w, ins[i].p, ins[i].rc)
		if err != nil {
			errs[i] = err
			return
		}
		docs, err := render(br, ins[i].techniques)
		if err != nil {
			errs[i] = err
			return
		}
		refs[i] = make(map[string][sha256.Size]byte, len(docs))
		for t, d := range docs {
			refs[i][t] = sha256.Sum256(d)
		}
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", ins[i].p.Name, err)
		}
	}
	for _, r := range results {
		if r.err != nil {
			continue
		}
		ref := refs[index[r.key]]
		for _, t := range ins[index[r.key]].techniques {
			if got, ok := r.digests[t]; !ok || got != ref[t] {
				rep.fail("job %d (%s): served %s profile differs from the reference", r.idx, r.key, t)
				break
			}
		}
	}
	return nil
}
