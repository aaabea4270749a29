package analysis

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/cpu"
	"repro/internal/pics"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

func robustWorkload(t *testing.T) workloads.Workload {
	t.Helper()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// panicProbe blows up partway through the replay stream.
type panicProbe struct {
	cpu.BaseProbe
	commits int
}

func (p *panicProbe) OnCommit(r cpu.Ref, cycle uint64) {
	p.commits++
	if p.commits > 100 {
		panic("probe exploded mid-replay")
	}
}

// TestPanickingProbeContained is the regression test for the
// goroutine-panic bug: a probe that panics during replay used to kill
// the whole process (panic in a bare goroutine). Now it must only void
// its own technique while the other nine return profiles identical to
// a clean run.
func TestPanickingProbeContained(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	p := w.Build(rc.iters(w))

	clean, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		t.Fatalf("clean run failed: %v", err)
	}

	testExtraProbe = func() (string, cpu.Probe) { return "chaos-probe", &panicProbe{} }
	defer func() { testExtraProbe = nil }()
	br, err := RunProgramContext(context.Background(), w, p, rc)
	if err != nil {
		t.Fatalf("run with panicking probe must not fail outright: %v", err)
	}
	perr, ok := br.Errors["chaos-probe"]
	if !ok {
		t.Fatalf("panicking probe not recorded in Errors: %v", br.Errors)
	}
	var se *simerr.Error
	if !errors.As(perr, &se) || se.Kind != simerr.ErrInternal {
		t.Fatalf("probe panic should surface as ErrInternal, got %v", perr)
	}
	if se.Snap.Technique != "chaos-probe" {
		t.Fatalf("error snapshot technique = %q, want chaos-probe", se.Snap.Technique)
	}
	if len(br.Errors) != 1 {
		t.Fatalf("only the panicking probe should fail, got %v", br.Errors)
	}
	for i, pair := range [][2]*pics.Profile{
		{br.Golden, clean.Golden}, {br.TEA, clean.TEA}, {br.NCITEA, clean.NCITEA},
		{br.IBS, clean.IBS}, {br.SPE, clean.SPE}, {br.RIS, clean.RIS},
	} {
		if pair[0] == nil {
			t.Fatalf("technique %d profile nil despite being healthy", i)
		}
		if pair[0].Total() != pair[1].Total() {
			t.Fatalf("technique %d total %v differs from clean run %v",
				i, pair[0].Total(), pair[1].Total())
		}
	}
}

// TestPanickingProbeSharesOneGroup drives the fault path with every
// probe in one replay group: at GOMAXPROCS 1 the panicking probe sits
// beside all nine techniques, so the group's single recover voids the
// whole pass and each technique replays again alone. Every healthy
// technique must still give a clean run's exact bytes, in a full
// replay and in a selective one.
func TestPanickingProbeSharesOneGroup(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ctx := context.Background()
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	p := w.Build(rc.iters(w))
	data, _, err := CaptureTrace(ctx, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := ReplayCaptured(ctx, w, p, rc, data)
	if err != nil {
		t.Fatalf("clean replay failed: %v", err)
	}

	testExtraProbe = func() (string, cpu.Probe) { return "chaos-probe", &panicProbe{} }
	t.Cleanup(func() { testExtraProbe = nil })
	for _, names := range [][]string{nil, {"golden", "ris", "counters", "stalls"}} {
		var br *BenchRun
		label := "all"
		if names == nil {
			br, err = ReplayCaptured(ctx, w, p, rc, data)
		} else {
			label = fmt.Sprint(names)
			br, err = ReplayTechniques(ctx, w, p, rc, data, names)
		}
		if err != nil {
			t.Fatalf("%s: replay with panicking probe must not fail outright: %v", label, err)
		}
		if _, ok := br.Errors["chaos-probe"]; !ok || len(br.Errors) != 1 {
			t.Fatalf("%s: want only chaos-probe in Errors, got %v", label, br.Errors)
		}
		for _, tq := range techniqueTable {
			asked := names == nil || slices.Contains(names, tq.name)
			got, want := br.Profile(tq.name), clean.Profile(tq.name)
			if want == nil {
				continue
			}
			if !asked {
				if got != nil {
					t.Errorf("%s: %s replayed without being asked for", label, tq.name)
				}
				continue
			}
			if got == nil {
				t.Fatalf("%s: %s profile nil despite being healthy", label, tq.name)
			}
			var gb, wb bytes.Buffer
			if err := got.WriteJSON(&gb); err != nil {
				t.Fatal(err)
			}
			if err := want.WriteJSON(&wb); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
				t.Errorf("%s: %s profile differs from the clean run", label, tq.name)
			}
		}
		if names == nil && (!reflect.DeepEqual(br.Counters, clean.Counters) ||
			!reflect.DeepEqual(br.Events, clean.Events) || !reflect.DeepEqual(br.Stalls, clean.Stalls)) {
			t.Errorf("statistics probes differ from the clean run")
		}
		if names != nil && (br.Counters == nil || br.Events != nil || br.Stalls == nil) {
			t.Errorf("%s: statistics probes do not match the request", label)
		}
	}
}

// TestCancellationDeterminism pins the no-partial-profile contract:
// cancelling RunProgramContext yields a typed ErrCanceled that unwraps
// to context.Canceled, and a nil BenchRun — regardless of when the
// cancellation lands.
func TestCancellationDeterminism(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	p := w.Build(rc.iters(w))

	// Cancelled before the run even starts.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	br, err := RunProgramContext(ctx, w, p, rc)
	if br != nil {
		t.Fatalf("cancelled run returned a BenchRun")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in chain", err)
	}
	if !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("err = %v, want simerr.ErrCanceled kind", err)
	}

	// Cancelled mid-run from another goroutine: still no partial
	// result, same typed error.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go cancel2()
	br, err = RunProgramContext(ctx2, w, p, rc)
	if err == nil {
		// The race can legitimately finish the run before the cancel
		// lands; that must yield a complete, error-free BenchRun.
		if br == nil || len(br.Errors) != 0 || br.TEA == nil {
			t.Fatalf("uncancelled run incomplete: br=%v", br)
		}
		return
	}
	if br != nil {
		t.Fatalf("cancelled run returned a BenchRun alongside %v", err)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, simerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestRunProgramPanicsTyped pins the legacy wrapper's behavior: a
// failing run panics with a *simerr.Error, not a bare string.
func TestRunProgramPanicsTyped(t *testing.T) {
	w := robustWorkload(t)
	rc := testConfig()
	rc.Scale = 0.05
	rc.Core.MaxCycles = 10 // guaranteed runaway
	p := w.Build(rc.iters(w))
	defer func() {
		v := recover()
		se, ok := v.(*simerr.Error)
		if !ok {
			t.Fatalf("recovered %T (%v), want *simerr.Error", v, v)
		}
		if se.Kind != simerr.ErrRunaway {
			t.Fatalf("kind = %v, want ErrRunaway", se.Kind)
		}
	}()
	RunProgram(w, p, rc)
	t.Fatal("RunProgram should have panicked")
}
