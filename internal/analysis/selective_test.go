package analysis_test

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/analysis"
	"repro/internal/faultinject"
	"repro/internal/pics"
	"repro/internal/serve"
	"repro/internal/simerr"
	"repro/internal/workloads"
)

func profileBytes(t *testing.T, p *pics.Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSelectiveReplayByteIdentical pins selective replay across the
// suite: replaying one served technique alone, or the whole served
// set, gives profile bytes equal to the full nine-probe replay and to
// live attachment. Techniques not asked for are absent.
func TestSelectiveReplayByteIdentical(t *testing.T) {
	ctx := context.Background()
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	rc.Interval = 64
	rc.Jitter = 8
	sets := [][]string{serve.AllTechniques}
	for _, name := range serve.AllTechniques {
		sets = append(sets, []string{name})
	}
	for _, w := range workloads.All() {
		t.Run(w.Name, func(t *testing.T) {
			p := w.Build(rc.Iters(w))
			data, _, err := analysis.CaptureTrace(ctx, p, rc)
			if err != nil {
				t.Fatal(err)
			}
			full, err := analysis.ReplayCaptured(ctx, w, p, rc, data)
			if err != nil {
				t.Fatal(err)
			}
			live := analysis.RunProgramLive(w, p, rc)
			want := map[string][]byte{}
			for _, name := range serve.AllTechniques {
				want[name] = profileBytes(t, full.Profile(name))
				if !bytes.Equal(want[name], profileBytes(t, live.Profile(name))) {
					t.Fatalf("%s: full replay differs from live attachment", name)
				}
			}
			for _, set := range sets {
				br, err := analysis.ReplayTechniques(ctx, w, p, rc, data, set)
				if err != nil {
					t.Fatalf("%v: %v", set, err)
				}
				if len(br.Errors) != 0 || br.Counters != nil || br.Events != nil || br.Stalls != nil {
					t.Fatalf("%v: unrequested results or errors: %v", set, br.Errors)
				}
				for _, name := range serve.AllTechniques {
					got := br.Profile(name)
					if !slices.Contains(set, name) {
						if got != nil {
							t.Errorf("%v: %s replayed without being asked for", set, name)
						}
						continue
					}
					if got == nil {
						t.Fatalf("%v: no %s profile", set, name)
					}
					if !bytes.Equal(profileBytes(t, got), want[name]) {
						t.Errorf("%v: %s differs from the full replay", set, name)
					}
				}
			}
		})
	}
}

// TestUnknownTechniqueRejected pins the selective entry points'
// validation: an unknown name is a typed ErrInvalidConfig, and
// RunTechniques rejects it before simulating anything.
func TestUnknownTechniqueRejected(t *testing.T) {
	ctx := context.Background()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	p := w.Build(rc.Iters(w))
	names := []string{"tea", "doom"}

	before := analysis.CaptureCount()
	br, err := analysis.RunTechniques(ctx, w, p, rc, names)
	if br != nil || !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("RunTechniques(%v) = %v, %v; want ErrInvalidConfig", names, br, err)
	}
	if got := analysis.CaptureCount() - before; got != 0 {
		t.Errorf("rejected request performed %d captures", got)
	}
	data, _, err := analysis.CaptureTrace(ctx, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	br, err = analysis.ReplayTechniques(ctx, w, p, rc, data, names)
	if br != nil || !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("ReplayTechniques(%v) = %v, %v; want ErrInvalidConfig", names, br, err)
	}
}

// TestSelectiveReplayDataFaultsTyped extends the chaos contract to
// selective replay: replaying one technique from a mutated stream
// either fails with a typed error or gives the clean bytes. A probe
// that panics on a corrupt record (a dense accumulator indexed by a
// damaged PC) must not turn the stream fault into a technique error.
func TestSelectiveReplayDataFaultsTyped(t *testing.T) {
	ctx := context.Background()
	w, err := workloads.ByName("bwaves")
	if err != nil {
		t.Fatal(err)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	p := w.Build(rc.Iters(w))
	data, _, err := analysis.CaptureTrace(ctx, p, rc)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := analysis.ReplayCaptured(ctx, w, p, rc, data)
	if err != nil {
		t.Fatal(err)
	}
	faults, err := faultinject.TraceFaults(data, faultinject.DefaultConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range faults {
		for _, name := range []string{"golden", "tea"} {
			br, err := analysis.ReplayTechniques(ctx, w, p, rc, f.Data, []string{name})
			if err != nil {
				var se *simerr.Error
				if !errors.As(err, &se) {
					t.Errorf("%s, %s: untyped error %v", f.Name, name, err)
				}
				continue
			}
			if len(br.Errors) != 0 {
				t.Errorf("%s, %s: data fault surfaced as technique errors %v", f.Name, name, br.Errors)
				continue
			}
			if !bytes.Equal(profileBytes(t, br.Profile(name)), profileBytes(t, clean.Profile(name))) {
				t.Errorf("%s, %s: profile differs from the clean stream with no error", f.Name, name)
			}
		}
	}
}

// BenchmarkReplay replays one captured mcf trace: "all" is the
// nine-probe ReplayCaptured every figure runs, "tea" the selective
// replay a served tea job runs.
func BenchmarkReplay(b *testing.B) {
	ctx := context.Background()
	w, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	rc := analysis.DefaultRunConfig()
	rc.Scale = 0.05
	p := w.Build(rc.Iters(w))
	data, _, err := analysis.CaptureTrace(ctx, p, rc)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name  string
		names []string
	}{{"all", nil}, {"tea", []string{"tea"}}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if bc.names == nil {
					_, err = analysis.ReplayCaptured(ctx, w, p, rc, data)
				} else {
					_, err = analysis.ReplayTechniques(ctx, w, p, rc, data, bc.names)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
