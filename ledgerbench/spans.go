package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// tracer keeps the spans of a traced run in memory. A nil *tracer is
// the untraced mode: spans still time their interval, so both modes run
// the same code, but nothing is recorded.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  int64
	spans []spanRecord
}

// spanRecord is one finished span as written to the span file. Times
// are microseconds since the run started; self time is the duration
// minus the part of the interval the span's children cover.
type spanRecord struct {
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	Job     int64   `json:"job"`
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`
	SelfUs  float64 `json:"self_us"`
}

// span is an open interval around one call into a layer.
type span struct {
	t      *tracer
	id     int64
	parent int64
	job    int64
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span named name under parent (0 for a root) for job.
func (t *tracer) start(name string, parent, job int64) span {
	s := span{t: t, parent: parent, job: job, name: name}
	if t != nil {
		t.mu.Lock()
		t.next++
		s.id = t.next
		t.mu.Unlock()
	}
	s.start = time.Now()
	return s
}

// end closes the span, records it when tracing is on, and returns its
// duration either way.
func (s span) end() time.Duration {
	stop := time.Now()
	d := stop.Sub(s.start)
	if s.t != nil {
		us := func(at time.Time) float64 { return float64(at.Sub(s.t.t0)) / float64(time.Microsecond) }
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, spanRecord{
			ID: s.id, Parent: s.parent, Job: s.job, Name: s.name,
			StartUs: us(s.start), EndUs: us(stop),
		})
		s.t.mu.Unlock()
	}
	return d
}

// records returns the finished spans ordered by start time, with self
// times filled in.
func (t *tracer) records() []spanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := slices.Clone(t.spans)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].StartUs < out[j].StartUs })
	children := map[int64][]spanRecord{}
	for _, s := range out {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range out {
		covered, reach := 0.0, out[i].StartUs
		// Children are in start order, so one sweep merges overlaps.
		for _, c := range children[out[i].ID] {
			lo, hi := max(c.StartUs, reach), min(c.EndUs, out[i].EndUs)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[i].SelfUs = out[i].EndUs - out[i].StartUs - covered
	}
	return out
}

// writeSpans writes one JSON span per line.
func writeSpans(path string, spans []spanRecord) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median is the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB is the process's resident-memory high-water mark.
func peakRSSMiB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Maxrss is in KiB on Linux
}

// goRuntime snapshots the allocation and GC counters.
type goRuntime struct {
	allocBytes uint64
	gcCycles   uint32
}

func readGoRuntime() goRuntime {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goRuntime{m.TotalAlloc, m.NumGC}
}

// perOp stores the runtime deltas from g to end, per completed
// operation.
func (g goRuntime) perOp(values map[string]float64, end goRuntime, ops int) {
	n := float64(max(ops, 1))
	values["go.alloc_mb"] = float64(end.allocBytes-g.allocBytes) / (1 << 20) / n
	values["go.gc_cycles"] = float64(end.gcCycles-g.gcCycles) / n
}
