package chipmunk_test

import (
	"context"
	"strings"
	"testing"
	"time"

	chipmunk "repro"
	"repro/internal/obs"
)

const samplingSrc = `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`

func TestPublicAPICompileAndSimulate(t *testing.T) {
	prog, err := chipmunk.Parse("sampling", samplingSrc)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	rep, err := chipmunk.Compile(ctx, prog, chipmunk.Options{
		Width:       2,
		MaxStages:   3,
		StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.IfElseRaw},
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("sampling must compile through the facade")
	}
	state := map[string]uint64{"count": 0}
	hits := 0
	for i := 0; i < 22; i++ {
		var pkt map[string]uint64
		pkt, state = rep.Config.Exec(map[string]uint64{"sample": 0}, state)
		if pkt["sample"] == 1 {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
}

func TestPublicAPIBaseline(t *testing.T) {
	prog := chipmunk.MustParse("sampling", samplingSrc)
	res, err := chipmunk.CompileBaseline(prog, chipmunk.IfElseRaw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatalf("baseline should compile the original: %s", res.Reason)
	}
	if res.Usage.Stages == 0 {
		t.Fatal("usage missing")
	}
}

func TestPublicAPICorpusAndMutate(t *testing.T) {
	corpus := chipmunk.Corpus()
	if len(corpus) != 8 {
		t.Fatalf("corpus size %d", len(corpus))
	}
	b, err := chipmunk.BenchmarkByName("flowlet")
	if err != nil {
		t.Fatal(err)
	}
	muts := chipmunk.Mutate(b.Parse(), 5, 1)
	if len(muts) != 5 {
		t.Fatalf("mutants: %d", len(muts))
	}
}

func TestPublicAPIEvaluate(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	outcomes, err := chipmunk.Evaluate(ctx, chipmunk.EvalOptions{
		Mutants:  2,
		Seed:     9,
		Programs: []string{"marple_new_flow"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outcomes) != 2 {
		t.Fatalf("outcomes: %d", len(outcomes))
	}
	t2 := chipmunk.Table2(outcomes)
	if !strings.Contains(t2, "marple_new_flow") {
		t.Fatalf("Table2 render:\n%s", t2)
	}
	f5 := chipmunk.Figure5(outcomes)
	if !strings.Contains(f5, "Pipeline stages") {
		t.Fatalf("Figure5 render:\n%s", f5)
	}
}

func TestPublicAPIExtensions(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	// §5.1 superoptimizer.
	so, err := chipmunk.Superoptimize(ctx, chipmunk.MustParse("x5", "pkt.y = pkt.x * 5;"),
		chipmunk.SuperoptOptions{Seed: 1})
	if err != nil || !so.Feasible || so.Length != 2 {
		t.Fatalf("superoptimize: %v feasible=%v length=%d", err, so.Feasible, so.Length)
	}

	// §5.2 approximate synthesis.
	care, err := chipmunk.ParseExpr("pkt.a >= 0 && pkt.a < 8")
	if err != nil {
		t.Fatal(err)
	}
	ar, err := chipmunk.SynthesizeApproximate(ctx,
		chipmunk.MustParse("mask", "pkt.out = pkt.a & 7;"),
		chipmunk.GridSpec{Stages: 1, Width: 2, WordWidth: 10,
			StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.Counter}},
		chipmunk.ApproxOptions{Care: care, Seed: 3})
	if err != nil || !ar.Feasible {
		t.Fatalf("approximate synthesis: %v feasible=%v", err, ar.Feasible)
	}

	// §5.3 repair hints.
	rr, err := chipmunk.RepairProgram(
		chipmunk.MustParse("broken", "if (pkt.a == 0) { s = 1 + s; }"),
		chipmunk.PredRaw, 4, chipmunk.RepairOptions{})
	if err != nil || !rr.Repaired {
		t.Fatalf("repair: %v repaired=%v reason=%s", err, rr.Repaired, rr.Reason)
	}
}

// TestApproximateNonzeroInitState: approximate synthesis, like exact
// synthesis, treats state as a free input. A nonzero initializer must not
// make the program infeasible.
func TestApproximateNonzeroInitState(t *testing.T) {
	care, err := chipmunk.ParseExpr("s == 0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := chipmunk.SynthesizeApproximate(ctx,
		chipmunk.MustParse("init", "int s = 5; s = s + 1;"),
		chipmunk.GridSpec{Stages: 1, Width: 2, WordWidth: 10,
			StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.Counter}},
		chipmunk.ApproxOptions{Care: care, Seed: 3})
	if err != nil || !res.Feasible {
		t.Fatalf("approximate synthesis with a nonzero initializer: %v feasible=%v", err, res != nil && res.Feasible)
	}
}

// TestSection5RunsAreTraced: the §5.1 superoptimizer and §5.2 approximate
// synthesis run the shared CEGIS loop, so they report through the same
// spans and counters as a compile: cegis.iter, synth and verify spans, and
// one sat.solve span per solve the sat.solves counter counts.
func TestSection5RunsAreTraced(t *testing.T) {
	care, err := chipmunk.ParseExpr("pkt.a >= 0 && pkt.a < 8")
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]func(ctx context.Context) error{
		"superopt": func(ctx context.Context) error {
			_, err := chipmunk.Superoptimize(ctx, chipmunk.MustParse("x5", "pkt.y = pkt.x * 5;"),
				chipmunk.SuperoptOptions{Seed: 1})
			return err
		},
		"approx": func(ctx context.Context) error {
			_, err := chipmunk.SynthesizeApproximate(ctx, chipmunk.MustParse("mask", "pkt.out = pkt.a & 7;"),
				chipmunk.GridSpec{Stages: 1, Width: 2, WordWidth: 10,
					StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.Counter}},
				chipmunk.ApproxOptions{Care: care, Seed: 3})
			return err
		},
	}
	for name, run := range runs {
		t.Run(name, func(t *testing.T) {
			tr, m := chipmunk.NewTracer(), chipmunk.NewMetrics()
			ctx, cancel := context.WithTimeout(chipmunk.WithMetrics(chipmunk.WithTracer(context.Background(), tr), m), time.Minute)
			defer cancel()
			if err := run(ctx); err != nil {
				t.Fatal(err)
			}
			recs := tr.Records()
			if err := obs.CheckWellFormed(recs); err != nil {
				t.Fatal(err)
			}
			spans := map[string]int64{}
			for _, r := range recs {
				if r.Type == obs.RecordStart {
					spans[r.Name]++
				}
			}
			for _, want := range []string{"cegis.iter", "synth", "verify"} {
				if spans[want] == 0 {
					t.Errorf("no %s span; spans: %v", want, spans)
				}
			}
			if got := m.Counter("sat.solves").Value(); got == 0 || got != spans["sat.solve"] {
				t.Errorf("sat.solves counter = %d, sat.solve spans = %d", got, spans["sat.solve"])
			}
		})
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse should panic on bad source")
		}
	}()
	chipmunk.MustParse("bad", "x = ;")
}
