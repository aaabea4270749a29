package trace

import (
	"context"
	"encoding/binary"

	"repro/internal/cpu"
	"repro/internal/simerr"
)

// Span is one length-prefixed byte region inside a block: LenStart is
// the offset of the uvarint length prefix, [Start, End) the payload.
// The fault-injection harness targets both — corrupting a length
// prefix desynchronizes the block framing, corrupting the payload
// desynchronizes a column — and either must surface as ErrDecode.
type Span struct {
	LenStart int
	Start    int
	End      int
}

// BlockLayout is the structural shape of one columnar block.
type BlockLayout struct {
	Start     int // offset of the block tag byte
	Records   int // record count from the block header
	Tokens    int // token count from the block header
	TokenSpan Span
	Columns   [nCols]Span // indexed like colKinds..colCounts; named by ColumnNames
	End       int
}

// StreamLayout is the structural shape of a complete v4 stream: the
// header, every block, and the done section. It is a framing-level
// parse — token and column *contents* are not validated (ReplayBytes
// owns that), so chaos modes can locate regions to corrupt even in
// streams they have already damaged semantically.
type StreamLayout struct {
	HeaderEnd int
	Blocks    []BlockLayout
	DoneStart int
	DoneEnd   int
}

// ParseLayout walks a complete in-memory v4 stream structurally and
// returns the offsets of every block, token span, column, and the done
// section. Framing damage (bad magic, truncated lengths, spans past
// the buffer) fails with a typed simerr.ErrDecode.
func ParseLayout(data []byte) (*StreamLayout, error) {
	layoutErr := func(format string, args ...any) error {
		return simerr.New(simerr.ErrDecode, simerr.Snapshot{}, format, args...)
	}
	if len(data) < 5 || [4]byte(data[:4]) != magic || data[4] != FormatVersion {
		return nil, layoutErr("trace: bad header")
	}
	lay := &StreamLayout{HeaderEnd: 5}
	pos := 5
	uv := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	span := func() (Span, bool) {
		s := Span{LenStart: pos}
		l, ok := uv()
		if !ok || l > uint64(len(data)-pos) {
			return s, false
		}
		s.Start = pos
		pos += int(l)
		s.End = pos
		return s, true
	}
	for pos < len(data) {
		tag := data[pos]
		start := pos
		pos++
		switch tag {
		case blockTag:
			b := BlockLayout{Start: start}
			nRec, ok1 := uv()
			nTok, ok2 := uv()
			if !ok1 || !ok2 || nRec == 0 || nRec > maxBlockRecords || nTok > nRec {
				return nil, layoutErr("trace: malformed block header at offset %d", start)
			}
			b.Records, b.Tokens = int(nRec), int(nTok)
			var ok bool
			if b.TokenSpan, ok = span(); !ok {
				return nil, layoutErr("trace: truncated token span at offset %d", start)
			}
			for c := 0; c < nCols; c++ {
				if b.Columns[c], ok = span(); !ok {
					return nil, layoutErr("trace: truncated %s column at offset %d", ColumnNames[c], start)
				}
			}
			b.End = pos
			lay.Blocks = append(lay.Blocks, b)
		case recDone:
			if _, ok := uv(); !ok {
				return nil, layoutErr("trace: truncated done section at offset %d", start)
			}
			if _, ok := uv(); !ok {
				return nil, layoutErr("trace: truncated integrity digest at offset %d", start)
			}
			lay.DoneStart, lay.DoneEnd = start, pos
			return lay, nil
		default:
			return nil, layoutErr("trace: unknown section tag %#x at offset %d", tag, start)
		}
	}
	return nil, layoutErr("trace: no done section")
}

// RecordOffsets scans a complete in-memory trace and returns the byte
// offset of every structural boundary: the header end, then for each
// block its tag, token span, and column starts, and finally the done
// section. The fault-injection harness uses it to truncate or splice
// captures at exact structure boundaries; the fuzz seed corpus is built
// the same way. (Before v4 the stream had per-record boundaries; the
// columnar format's interesting corruption points are these instead.)
func RecordOffsets(data []byte) ([]int, error) {
	lay, err := ParseLayout(data)
	if err != nil {
		return nil, err
	}
	offsets := []int{lay.HeaderEnd}
	for _, b := range lay.Blocks {
		offsets = append(offsets, b.Start, b.TokenSpan.Start)
		for _, c := range b.Columns {
			offsets = append(offsets, c.Start)
		}
	}
	offsets = append(offsets, lay.DoneStart)
	return offsets, nil
}

// CodecStats describes one v4 stream for operators: the writer's
// Counters re-derived from the bytes alone, where the bytes live (token
// stream vs each column), and how many records of each kind the stream
// carries. Produced by ScanStats and surfaced by `teatrace -stats`.
type CodecStats struct {
	Counters
	TotalCycles uint64 `json:"total_cycles"`

	TokenBytes uint64            `json:"token_bytes"`
	Columns    map[string]uint64 `json:"column_bytes"` // keyed by ColumnNames

	// KindRecords counts records per kind (fetch, dispatch, commit,
	// squash, cycle); the done section has no kind.
	KindRecords map[string]uint64 `json:"kind_records"`
}

// BytesPerCycle is the encoded size over simulated cycles.
func (s CodecStats) BytesPerCycle() float64 {
	if s.TotalCycles == 0 {
		return 0
	}
	return float64(s.EncodedBytes) / float64(s.TotalCycles)
}

// kindNames labels record kinds 1..5 for the stats histogram.
var kindNames = [...]string{
	recFetch:    "fetch",
	recDispatch: "dispatch",
	recCommit:   "commit",
	recSquash:   "squash",
	recCycle:    "cycle",
}

// kindProbe counts replayed records per kind.
type kindProbe struct {
	cpu.BaseProbe
	n [recCycle + 1]uint64
}

func (k *kindProbe) OnFetch(cpu.Ref, uint64)    { k.n[recFetch]++ }
func (k *kindProbe) OnDispatch(cpu.Ref, uint64) { k.n[recDispatch]++ }
func (k *kindProbe) OnCommit(cpu.Ref, uint64)   { k.n[recCommit]++ }
func (k *kindProbe) OnSquash(cpu.Ref, uint64)   { k.n[recSquash]++ }
func (k *kindProbe) OnCycle(*cpu.CycleInfo)     { k.n[recCycle]++ }

// ScanStats replays a complete in-memory v4 stream (validating it end
// to end, digest included) and returns its codec statistics; its
// Counters equal the writer's for the same stream. A stream that fails
// replay fails ScanStats with the same typed error.
//
//tealint:ctxroot stats pass over an in-memory buffer, bounded by the buffer's length; nothing upstream to cancel it
func ScanStats(data []byte) (*CodecStats, error) {
	kp := &kindProbe{}
	cycles, err := ReplayBytes(context.Background(), data, kp)
	if err != nil {
		return nil, err
	}
	lay, err := ParseLayout(data)
	if err != nil {
		return nil, err
	}
	st := &CodecStats{
		Counters: Counters{
			Records:      1, // the done section, as Writer counts it
			Blocks:       uint64(len(lay.Blocks)),
			EncodedBytes: uint64(len(data)),
		},
		TotalCycles: cycles,
		Columns:     make(map[string]uint64, nCols),
		KindRecords: make(map[string]uint64, recCycle),
	}
	for k := recFetch; k <= recCycle; k++ {
		st.Records += kp.n[k]
		st.KindRecords[kindNames[k]] = kp.n[k]
	}
	for _, b := range lay.Blocks {
		st.TokenBytes += uint64(b.TokenSpan.End - b.TokenSpan.Start)
		for c, col := range b.Columns {
			st.Columns[ColumnNames[c]] += uint64(col.End - col.Start)
		}
		if err := st.countTokens(data[b.TokenSpan.Start:b.TokenSpan.End], b.Tokens); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// countTokens folds a block's token stream into c. The stream already
// passed full replay validation; the guards here only keep the tally
// loop bounded.
func (c *Counters) countTokens(tokens []byte, nTok int) error {
	tp := 0
	for k := 0; k < nTok; k++ {
		v, sz := binary.Uvarint(tokens[tp:])
		if sz <= 0 {
			return simerr.New(simerr.ErrDecode, simerr.Snapshot{}, "trace: truncated token")
		}
		tp += sz
		if v&1 == 0 {
			c.LitTokens++
			c.LitRecords += v >> 1
			continue
		}
		c.MatchTokens++
		c.MatchedRecords += v >> 1
		if _, sz = binary.Uvarint(tokens[tp:]); sz <= 0 {
			return simerr.New(simerr.ErrDecode, simerr.Snapshot{}, "trace: truncated match distance")
		}
		tp += sz
	}
	return nil
}
