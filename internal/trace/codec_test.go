package trace

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/cpu"
	"repro/internal/workloads"
)

// captureStream records one workload run and returns the encoded
// stream plus the writer for its counters.
func captureStream(t *testing.T, bench string, iters int) ([]byte, *Writer) {
	t.Helper()
	w, err := workloads.ByName(bench)
	if err != nil {
		t.Fatal(err)
	}
	c := cpu.New(cpu.DefaultConfig(), w.Build(iters))
	var buf bytes.Buffer
	tw := NewWriter(&buf)
	c.Attach(tw)
	c.Run()
	if err := tw.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tw
}

// TestParseLayoutCoversStream checks that the structural walk accounts
// for every byte: header, then blocks back to back, then the done
// section ending exactly at the stream's end, with each block's token
// span and columns nested inside the block in declaration order.
func TestParseLayoutCoversStream(t *testing.T) {
	data, _ := captureStream(t, "bwaves", 6)
	lay, err := ParseLayout(data)
	if err != nil {
		t.Fatal(err)
	}
	if lay.HeaderEnd != 5 {
		t.Errorf("header end %d, want 5", lay.HeaderEnd)
	}
	if len(lay.Blocks) == 0 {
		t.Fatal("no blocks parsed")
	}
	pos := lay.HeaderEnd
	for i, b := range lay.Blocks {
		if b.Start != pos {
			t.Errorf("block %d starts at %d, want %d (blocks must be contiguous)", i, b.Start, pos)
		}
		if b.TokenSpan.Start <= b.Start || b.TokenSpan.End > b.End {
			t.Errorf("block %d token span [%d,%d) outside block [%d,%d)",
				i, b.TokenSpan.Start, b.TokenSpan.End, b.Start, b.End)
		}
		prevEnd := b.TokenSpan.End
		for ci, col := range b.Columns {
			if col.LenStart != prevEnd {
				t.Errorf("block %d column %s starts at %d, want %d (columns must be contiguous)",
					i, ColumnNames[ci], col.LenStart, prevEnd)
			}
			prevEnd = col.End
		}
		if prevEnd != b.End {
			t.Errorf("block %d last column ends at %d, block ends at %d", i, prevEnd, b.End)
		}
		pos = b.End
	}
	if lay.DoneStart != pos {
		t.Errorf("done section starts at %d, want %d", lay.DoneStart, pos)
	}
	if lay.DoneEnd != len(data) {
		t.Errorf("done section ends at %d, stream is %d bytes", lay.DoneEnd, len(data))
	}
}

// TestScanStatsMatchesCounters checks that the offline stats scan
// re-derives exactly what the writer counted at encode time, and that
// the per-column and per-kind breakdowns sum to their totals.
func TestScanStatsMatchesCounters(t *testing.T) {
	data, tw := captureStream(t, "lbm", 8)
	st, err := ScanStats(data)
	if err != nil {
		t.Fatal(err)
	}
	ctr := tw.Counters()
	if st.Counters != ctr {
		t.Errorf("counters: scan %+v, writer %+v", st.Counters, ctr)
	}
	if st.LitRecords+st.MatchedRecords != st.Records-1 { // the done section is no block record
		t.Errorf("tokens cover %d literal + %d matched records, stream has %d incl. done",
			st.LitRecords, st.MatchedRecords, st.Records)
	}

	var kindRecords uint64
	for _, v := range st.KindRecords {
		kindRecords += v
	}
	if kindRecords != ctr.Records-1 { // the done section has no kind
		t.Errorf("per-kind records sum to %d, writer counted %d incl. done", kindRecords, ctr.Records)
	}

	var colBytes uint64
	for _, name := range ColumnNames {
		colBytes += st.Columns[name]
	}
	if len(st.Columns) != len(ColumnNames) {
		t.Errorf("column map has %d entries, want %d", len(st.Columns), len(ColumnNames))
	}
	if colBytes+st.TokenBytes >= st.EncodedBytes {
		t.Errorf("columns (%d) + tokens (%d) should be under encoded total %d (framing overhead)",
			colBytes, st.TokenBytes, st.EncodedBytes)
	}
	if hr := st.PatternHitRate(); hr <= 0 || hr > 1 {
		t.Errorf("pattern hit rate %v out of (0,1] on a loop workload", hr)
	}
}

// TestReplayMatchesWriterDigest checks the window-independence of the
// integrity digest directly: the decoder accepts the stream (digest
// verified internally) and reports the writer's cycle count.
func TestReplayMatchesWriterDigest(t *testing.T) {
	data, tw := captureStream(t, "mcf", 6)
	var last uint64
	got, err := ReplayBytes(context.Background(), data, probeFunc(func(cycle uint64) { last = cycle }))
	if err != nil {
		t.Fatal(err)
	}
	if got != last {
		t.Errorf("replay returned %d cycles, OnDone saw %d", got, last)
	}
	if tw.Counters().Records == 0 {
		t.Fatal("writer recorded nothing")
	}
}

// probeFunc adapts a done callback into a cpu.Probe.
type probeFunc func(totalCycles uint64)

func (probeFunc) OnFetch(cpu.Ref, uint64)    {}
func (probeFunc) OnDispatch(cpu.Ref, uint64) {}
func (probeFunc) OnCommit(cpu.Ref, uint64)   {}
func (probeFunc) OnSquash(cpu.Ref, uint64)   {}
func (probeFunc) OnCycle(*cpu.CycleInfo)     {}
func (f probeFunc) OnDone(c uint64)          { f(c) }
