package core

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// compileProfiled runs one compile of sampling under a fresh registry
// and, when traced, a fresh tracer, and returns the report, the registry
// and the rolled-up profile (zero when untraced).
func compileProfiled(t *testing.T, opts Options, traced bool) (*Report, *obs.Registry, obs.CompileProfile) {
	t.Helper()
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ctx = obs.ContextWithMetrics(ctx, reg)
	if !traced {
		return compileOn(t, ctx, b, opts), reg, obs.CompileProfile{}
	}
	rep := compileOn(t, obs.ContextWithTracer(ctx, tr), b, opts)
	p, err := tr.Profile()
	if err != nil {
		t.Fatal(err)
	}
	return rep, reg, p
}

func compileOn(t *testing.T, ctx context.Context, b programs.Benchmark, opts Options) *Report {
	t.Helper()
	rep, err := Compile(ctx, b.Parse(), opts)
	if err != nil {
		t.Error(err)
		return &Report{}
	}
	return rep
}

// effortCounters are the solver-effort metrics every view must agree on,
// read from a registry.
func effortCounters(reg *obs.Registry) [5]int64 {
	var out [5]int64
	for i, name := range []string{"sat.conflicts", "sat.decisions", "sat.propagations", "cegis.iterations", "core.attempts"} {
		out[i] = reg.Counter(name).Value()
	}
	return out
}

// reportCounters are the same metrics from the reports' own bookkeeping,
// summed over reps.
func reportCounters(reps ...*Report) [5]int64 {
	var out [5]int64
	for _, rep := range reps {
		eff := rep.Effort()
		out[0] += eff.Conflicts
		out[1] += eff.Decisions
		out[2] += eff.Propagations
		out[3] += int64(eff.Iters)
		out[4] += int64(len(rep.Depths))
	}
	return out
}

// The registry, the profile and the report must agree on solver effort in
// both execution modes. The registry and the profile fold the same span
// ends; the report keeps its own books from cegis.Result. With seed
// hedging (slots started at once, so both run) every view counts every
// slot's work.
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
			if tc.opts.SeedFanout > 1 {
				setStagger(t, 0)
			}
			rep, reg, p := compileProfiled(t, tc.opts, true)
			if !rep.Feasible || !p.Feasible {
				t.Fatalf("sampling must be feasible (report=%v profile=%v)", rep.Feasible, p.Feasible)
			}
			want := reportCounters(rep)
			if got := effortCounters(reg); got != want {
				t.Errorf("registry effort %v, report %v", got, want)
			}
			if got := [5]int64{p.Conflicts, p.Decisions, p.Propagations, int64(p.Iters), int64(p.Attempts)}; got != want {
				t.Errorf("profile effort %v, report %v", got, want)
			}
			eff := rep.Effort()
			if p.PeakCNFVars != eff.PeakCNFVars || reg.Gauge("cnf.vars").Value() != int64(eff.PeakCNFVars) {
				t.Errorf("peak CNF vars: profile %d, registry %d, report %d",
					p.PeakCNFVars, reg.Gauge("cnf.vars").Value(), eff.PeakCNFVars)
			}
			if p.Solves != int(reg.Counter("sat.solves").Value()) || p.Restarts != reg.Counter("sat.restarts").Value() {
				t.Errorf("solves/restarts: profile %d/%d, registry %d/%d", p.Solves, p.Restarts,
					reg.Counter("sat.solves").Value(), reg.Counter("sat.restarts").Value())
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

	// A registry needs no tracer (chipmunk -pprof, evalgen -stats).
	t.Run("registry-only", func(t *testing.T) {
		rep, reg, _ := compileProfiled(t, seq, false)
		if got, want := effortCounters(reg), reportCounters(rep); got != want || want[0] == 0 {
			t.Errorf("untraced registry effort %v, report %v", got, want)
		}
	})

	// Two concurrent compiles sharing one registry fold each span end
	// exactly once: the registry holds the sum of both reports.
	t.Run("shared-registry", func(t *testing.T) {
		reg := obs.NewRegistry()
		ctx, cancel := context.WithTimeout(obs.ContextWithMetrics(context.Background(), reg), 2*time.Minute)
		defer cancel()
		reps := make([]*Report, 2)
		var wg sync.WaitGroup
		for i := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				opts := seq
				opts.Seed += int64(i)
				ctx := ctx
				if i == 0 {
					ctx = obs.ContextWithTracer(ctx, obs.NewTracer())
				}
				reps[i] = compileOn(t, ctx, b, opts)
			}()
		}
		wg.Wait()
		if got, want := effortCounters(reg), reportCounters(reps...); got != want {
			t.Errorf("shared registry effort %v, sum of reports %v", got, want)
		}
	})
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
