package main

import (
	"sync"
	"time"

	"repro/internal/journal"
)

// timingFS is the production journal filesystem with every durable
// write timed: each WAL fsync and each result file (written and synced
// in one call). The service receives it as Config.JournalFS.
type timingFS struct {
	journal.OSFS

	mu    sync.Mutex
	syncs []time.Duration
	bytes uint64
}

// journalTotals is a point-in-time copy of the counters.
type journalTotals struct {
	syncs int
	bytes uint64
}

// synced records one durable write that took d.
func (f *timingFS) synced(d time.Duration) {
	f.mu.Lock()
	f.syncs = append(f.syncs, d)
	f.mu.Unlock()
}

// wrote counts n bytes written.
func (f *timingFS) wrote(n int) {
	f.mu.Lock()
	f.bytes += uint64(n)
	f.mu.Unlock()
}

func (f *timingFS) totals() journalTotals {
	f.mu.Lock()
	defer f.mu.Unlock()
	return journalTotals{len(f.syncs), f.bytes}
}

// syncsSince returns the durations of the syncs after the first t.syncs.
func (f *timingFS) syncsSince(t journalTotals) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]float64, 0, len(f.syncs)-t.syncs)
	for _, d := range f.syncs[t.syncs:] {
		out = append(out, ms(d))
	}
	return out
}

// WriteFile implements journal.FS; the file is synced before it
// returns.
func (f *timingFS) WriteFile(name string, data []byte) error {
	t0 := time.Now()
	err := f.OSFS.WriteFile(name, data)
	f.synced(time.Since(t0))
	f.wrote(len(data))
	return err
}

// OpenAppend implements journal.FS with a timed append handle.
func (f *timingFS) OpenAppend(name string) (journal.File, error) {
	file, err := f.OSFS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{File: file, fs: f}, nil
}

// timingFile counts appended bytes and times Sync.
type timingFile struct {
	journal.File
	fs *timingFS
}

func (t *timingFile) Write(p []byte) (int, error) {
	n, err := t.File.Write(p)
	t.fs.wrote(n)
	return n, err
}

func (t *timingFile) Sync() error {
	t0 := time.Now()
	err := t.File.Sync()
	t.fs.synced(time.Since(t0))
	return err
}
