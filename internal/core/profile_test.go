package core

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// compileProfiled runs one compile under a fresh tracer and returns the
// report plus the rolled-up profile.
func compileProfiled(t *testing.T, opts Options) (*Report, obs.CompileProfile) {
	t.Helper()
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = obs.ContextWithTracer(ctx, tr)
	rep, err := Compile(ctx, b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return rep, p
}

// The profile's solver-effort counters must agree with the report's own
// bookkeeping in both execution modes — they are rolled up from the span
// tree by an independent path, so agreement pins the attribution. With
// seed hedging both sides count every slot's work.
func TestProfileRollupMatchesReportEffort(t *testing.T) {
	b, _ := programs.ByName("sampling")
	seq := benchOptions(b)

	hedged := benchOptions(b)
	hedged.SeedFanout = 2

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"sequential", seq},
		{"hedged", hedged},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep, p := compileProfiled(t, tc.opts)
			if !rep.Feasible || !p.Feasible {
				t.Fatalf("sampling must be feasible (report=%v profile=%v)", rep.Feasible, p.Feasible)
			}
			eff := rep.Effort()
			if p.Iters != eff.Iters {
				t.Errorf("iters: profile %d, report %d", p.Iters, eff.Iters)
			}
			if p.Conflicts != eff.Conflicts {
				t.Errorf("conflicts: profile %d, report %d", p.Conflicts, eff.Conflicts)
			}
			if p.Decisions != eff.Decisions {
				t.Errorf("decisions: profile %d, report %d", p.Decisions, eff.Decisions)
			}
			if p.Propagations != eff.Propagations {
				t.Errorf("propagations: profile %d, report %d", p.Propagations, eff.Propagations)
			}
			if p.PeakCNFVars != eff.PeakCNFVars {
				t.Errorf("peak CNF vars: profile %d, report %d", p.PeakCNFVars, eff.PeakCNFVars)
			}
			if p.TotalMS <= 0 || p.SolveMS <= 0 || p.Solves == 0 {
				t.Errorf("degenerate wall-clock attribution: %+v", p)
			}
			if p.SolveSynthMS+p.SolveVerifyMS > p.SolveMS+1e-9 {
				t.Errorf("phase split exceeds total solve time: synth=%v verify=%v total=%v",
					p.SolveSynthMS, p.SolveVerifyMS, p.SolveMS)
			}
			if tc.name == "hedged" {
				if p.Winner == "" || p.Winner != rep.Winner {
					t.Errorf("winner: profile %q, report %q", p.Winner, rep.Winner)
				}
				if p.WastedConflicts != rep.WastedConflicts {
					t.Errorf("wasted conflicts: profile %d, report %d", p.WastedConflicts, rep.WastedConflicts)
				}
			} else if p.Winner != "" {
				t.Errorf("sequential compile reports a hedge winner: %+v", p)
			} else {
				checkOtherParts(t, p)
			}
		})
	}
}

// Options.History must capture one profile record per compile — installing
// a private tracer when the caller brought none — and a cached recompile
// must record as such.
func TestCompileWritesHistory(t *testing.T) {
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/hist.jsonl"
	hist, err := perfhist.Open(path, "core-test")
	if err != nil {
		t.Fatal(err)
	}
	opts := benchOptions(b)
	opts.Cache = solcache.New(4)
	opts.History = hist

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for i := 0; i < 2; i++ {
		if _, err := Compile(ctx, b.Parse(), opts); err != nil {
			t.Fatal(err)
		}
	}
	if err := hist.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := perfhist.ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("history has %d records, want 2 (one per compile)", len(recs))
	}
	cold, warm := recs[0], recs[1]
	if cold.Program != "sampling" || cold.Profile == nil {
		t.Fatalf("cold record: %+v", cold)
	}
	if cold.Samples["cached"] != 0 || cold.Samples["conflicts"] == 0 {
		t.Errorf("cold samples: %v", cold.Samples)
	}
	if warm.Samples["cached"] != 1 {
		t.Errorf("warm samples: %v", warm.Samples)
	}
	if warm.Profile == nil || warm.Profile.CrossCheckMS <= 0 || warm.Profile.SketchMS != 0 {
		t.Errorf("a cache hit cross-checks its stored configuration and builds no sketch: %+v", warm.Profile)
	}
	checkOtherParts(t, *cold.Profile)
	if cold.Meta.Bench != "core-test" || cold.Meta.RunID == "" {
		t.Errorf("cold meta: %+v", cold.Meta)
	}
}

// checkOtherParts pins a searched sequential compile's layers: sketch
// build, model extraction and cross-check are all timed, they fit inside
// OtherMS, and synth + verify + lookup + other is the compile's wall time.
func checkOtherParts(t *testing.T, p obs.CompileProfile) {
	t.Helper()
	if p.SketchMS <= 0 || p.ExtractMS <= 0 || p.CrossCheckMS <= 0 {
		t.Errorf("untimed layer outside the CEGIS phases: sketch=%v extract=%v crosscheck=%v",
			p.SketchMS, p.ExtractMS, p.CrossCheckMS)
	}
	if parts := p.SketchMS + p.ExtractMS + p.CrossCheckMS; parts > p.OtherMS+1e-9 {
		t.Errorf("sketch+extract+crosscheck = %v ms exceeds OtherMS %v", parts, p.OtherMS)
	}
	if sum := p.SynthMS + p.VerifyMS + p.CacheLookupMS + p.OtherMS; math.Abs(sum-p.TotalMS) > 1e-6 {
		t.Errorf("synth+verify+lookup+other = %v ms, TotalMS %v", sum, p.TotalMS)
	}
}
