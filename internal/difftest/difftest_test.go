package difftest

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/sat"
	"repro/internal/word"
)

func TestByteChooser(t *testing.T) {
	c := NewByteChooser([]byte{0, 7, 255})
	for i, want := range []int{0, 7, 255 % 10, 0, 7 % 3} {
		n := []int{10, 10, 10, 10, 3}[i]
		if got := c.Intn(n); got != want {
			t.Fatalf("choice %d: Intn(%d) = %d, want %d", i, n, got, want)
		}
	}
	empty := NewByteChooser(nil)
	for i := 0; i < 5; i++ {
		if got := empty.Intn(7); got != 0 {
			t.Fatalf("empty chooser returned %d, want 0", got)
		}
	}
}

// TestRandomScenarioWellFormed checks every generated program prints to
// source the parser accepts back into an identical AST, and runs cleanly
// under the interpreter — the contract cmd/chipfuzz reproducer artifacts
// depend on.
func TestRandomScenarioWellFormed(t *testing.T) {
	in := interp.MustNew(word.Width(4))
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sc := RandomScenario(rng, GenOptions{})
		if sc.Width < 1 || sc.MaxStages < 1 {
			t.Fatalf("seed %d: degenerate scenario width=%d stages=%d", seed, sc.Width, sc.MaxStages)
		}
		src := sc.Prog.Print()
		back, err := parser.Parse(sc.Prog.Name, src)
		if err != nil {
			t.Fatalf("seed %d: generated program does not re-parse: %v\n%s", seed, err, src)
		}
		if !ast.EqualStmts(sc.Prog.Stmts, back.Stmts) {
			t.Fatalf("seed %d: print/parse round trip changed the AST:\n%s", seed, src)
		}
		vars := sc.Prog.Variables()
		if len(vars.Fields) > sc.Width {
			t.Fatalf("seed %d: %d fields exceed declared width %d", seed, len(vars.Fields), sc.Width)
		}
		snap := interp.NewSnapshot()
		for _, f := range vars.Fields {
			snap.Pkt[f] = uint64(rng.Intn(16))
		}
		for _, s := range vars.States {
			snap.State[s] = uint64(rng.Intn(16))
		}
		if _, err := in.Run(sc.Prog, snap); err != nil {
			t.Fatalf("seed %d: interpreter rejected generated program: %v\n%s", seed, err, src)
		}
	}
}

// TestByteChooserDrivesGenerator checks the fuzz-facing path: arbitrary
// byte strings must always produce a valid scenario.
func TestByteChooserDrivesGenerator(t *testing.T) {
	inputs := [][]byte{
		nil,
		{0},
		{255, 255, 255, 255},
		[]byte("arbitrary fuzz bytes \x00\x01\x02"),
	}
	for _, data := range inputs {
		sc := RandomScenario(NewByteChooser(data), GenOptions{})
		if _, err := parser.Parse("fuzz", sc.Prog.Print()); err != nil {
			t.Fatalf("bytes %q: invalid program: %v\n%s", data, err, sc.Prog.Print())
		}
	}
}

// TestCheckSolverDetectsFlippedVerdict proves the differential oracle
// catches a solver that inverts its verdict — the class of bug a broken
// watched-literal scheme produces.
func TestCheckSolverDetectsFlippedVerdict(t *testing.T) {
	flipped := func(f *sat.Formula) (sat.Status, []bool) {
		st, model := CDCLSolve(f)
		switch st {
		case sat.Sat:
			return sat.Unsat, nil
		case sat.Unsat:
			return sat.Sat, make([]bool, f.NumVars)
		}
		return st, model
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		f := RandomFormula(rng)
		if d := CheckSolver(f, flipped); d != nil {
			if d.Kind != KindSolverMismatch && d.Kind != KindModelInvalid {
				t.Fatalf("unexpected discrepancy kind %q", d.Kind)
			}
			return
		}
	}
	t.Fatal("flipped solver not detected in 50 formulas")
}

// TestCheckSolverDetectsBogusModel proves a correct verdict with an
// unsatisfying model is still rejected.
func TestCheckSolverDetectsBogusModel(t *testing.T) {
	bogus := func(f *sat.Formula) (sat.Status, []bool) {
		st, _ := CDCLSolve(f)
		return st, make([]bool, f.NumVars) // all-false, usually not a model
	}
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		f := RandomFormula(rng)
		if d := CheckSolver(f, bogus); d != nil {
			if d.Kind != KindModelInvalid {
				t.Fatalf("unexpected discrepancy kind %q", d.Kind)
			}
			return
		}
	}
	t.Fatal("bogus model not detected in 100 formulas")
}

func TestCheckSolverPassesProductionSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 100; trial++ {
		f := RandomFormula(rng)
		if d := CheckSolver(f, nil); d != nil {
			t.Fatalf("trial %d: %s", trial, d)
		}
		if d := CheckDIMACSRoundTrip(f); d != nil {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

// TestCheckConfigEquivalenceDetectsWrongConfig compiles one program per
// target and checks its config against a different program: the
// brute-force oracle must notice on both.
func TestCheckConfigEquivalenceDetectsWrongConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles through CEGIS")
	}
	prog := parser.MustParse("inc", "pkt.a = pkt.a + 1;")
	other := parser.MustParse("inc2", "pkt.a = pkt.a + 2;")
	targets := map[string]core.Options{
		"pisa": {Width: 1, MaxStages: 1},
		"bpf":  {Target: "bpf", FixedStages: true, MaxStages: 1},
	}
	for name, opts := range targets {
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			rep, err := core.Compile(ctx, prog, opts)
			if err != nil || !rep.Feasible {
				t.Fatalf("baseline compile failed: err=%v rep=%+v", err, rep)
			}
			if rep.Artifact.Target() != name {
				t.Fatalf("artifact target = %q", rep.Artifact.Target())
			}
			if d := CheckConfigEquivalence(prog, rep.Artifact, 1); d != nil {
				t.Fatalf("honest config flagged: %s", d)
			}
			d := CheckConfigEquivalence(other, rep.Artifact, 1)
			if d == nil {
				t.Fatal("config for pkt.a+1 passed as implementation of pkt.a+2")
			}
			if d.Kind != KindConfigMismatch {
				t.Fatalf("discrepancy kind = %q, want %q", d.Kind, KindConfigMismatch)
			}
		})
	}
}

func TestShrinkMinimizesToFailureCore(t *testing.T) {
	prog := parser.MustParse("big", `
int s = 5;
pkt.b = pkt.b + 3;
if (pkt.a < 4) {
  s = s + pkt.a;
  pkt.c = pkt.c ^ pkt.b;
}
pkt.a = (pkt.a + pkt.b) - (1 + 2);
`)
	// Failure: "the program subtracts somewhere". The shrinker should strip
	// everything except one subtraction.
	containsSub := func(p *ast.Program) bool {
		return strings.Contains(p.Print(), "-")
	}
	if !containsSub(prog) {
		t.Fatal("precondition: source must contain a subtraction")
	}
	min := Shrink(prog, containsSub)
	if !containsSub(min) {
		t.Fatalf("shrinker lost the failing property:\n%s", min.Print())
	}
	if len(min.Stmts) != 1 {
		t.Fatalf("shrunk to %d statements, want 1:\n%s", len(min.Stmts), min.Print())
	}
	if got := min.Init["s"]; got != 0 {
		t.Fatalf("Init[s] = %d, want shrunk to 0", got)
	}
	// The minimized program must still be valid, re-parseable source.
	if _, err := parser.Parse("min", min.Print()); err != nil {
		t.Fatalf("shrunk program does not parse: %v\n%s", err, min.Print())
	}
}

func TestShrinkRespectsStepBudget(t *testing.T) {
	prog := parser.MustParse("b", "pkt.a = pkt.a + pkt.b; pkt.b = pkt.b + 1;")
	calls := 0
	min := Shrink(prog, func(p *ast.Program) bool {
		calls++
		return true // everything "fails": worst case for the loop
	})
	if calls > 400 {
		t.Fatalf("predicate called %d times, budget is 400", calls)
	}
	if min == nil {
		t.Fatal("nil result")
	}
}

// TestCampaignSmoke runs a tiny end-to-end campaign: it must finish, count
// consistently, and find no discrepancies in a healthy tree.
func TestCampaignSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles through CEGIS")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()
	var artifacts strings.Builder
	sum, failures, err := Run(ctx, CampaignOptions{
		Iters:          8,
		Seed:           7,
		Parallelism:    2,
		CompileTimeout: 20 * time.Second,
		MutantsEvery:   4,
		UnsatSamples:   16,
		Artifacts:      &artifacts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Iters != 8 {
		t.Fatalf("ran %d iterations, want 8", sum.Iters)
	}
	if sum.Compiles != 8 || sum.SolverChecks != 8 {
		t.Fatalf("inconsistent counters: %+v", sum)
	}
	if sum.Feasible+sum.Infeasible+sum.TimedOut > sum.Compiles {
		t.Fatalf("outcome counters exceed compiles: %+v", sum)
	}
	if len(failures) != 0 {
		t.Fatalf("campaign found %d discrepancies on a healthy tree:\n%s", len(failures), artifacts.String())
	}
	if artifacts.Len() != 0 {
		t.Fatalf("artifacts written with no failures:\n%s", artifacts.String())
	}
	// Campaign effort must be accounted: elapsed time, throughput, and a
	// nonzero per-oracle split for the stages that always run.
	if sum.ElapsedMS <= 0 || sum.ItersPerSec <= 0 {
		t.Errorf("effort totals: elapsed=%v iters/sec=%v", sum.ElapsedMS, sum.ItersPerSec)
	}
	if sum.SolverMS <= 0 || sum.CompileMS <= 0 {
		t.Errorf("per-oracle split: solver=%v compile=%v", sum.SolverMS, sum.CompileMS)
	}
	samples := sum.Samples()
	for _, name := range []string{"iters", "compiles", "iters_per_sec", "solver_ms", "compile_ms", "oracle_ms", "mutant_ms", "failures"} {
		if _, ok := samples[name]; !ok {
			t.Errorf("Samples missing %q", name)
		}
	}
	if samples["iters"] != 8 || samples["failures"] != 0 {
		t.Errorf("sample values: %v", samples)
	}
}

// TestCampaignSurfacesInjectedDiscrepancy routes the campaign's failure
// path end to end: a metamorphic scenario with a broken "mutant" is
// simulated by checking CheckMetamorphic directly on a program whose
// mutant set is healthy, then asserting the JSONL artifact writer fires
// for an injected record.
func TestCampaignArtifactFormat(t *testing.T) {
	var buf strings.Builder
	_, failures, err := Run(context.Background(), CampaignOptions{
		Iters:        1,
		Seed:         11,
		MutantsEvery: -1, // disable mutants: keep this test about plumbing
		Artifacts:    &buf,
		// Zero-iteration compile budget forces TimedOut, not failures.
		CompileTimeout: 1 * time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range failures {
		if f.Kind == "" {
			t.Fatalf("failure with empty kind: %+v", f)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		if !strings.HasPrefix(line, "{") || !strings.HasSuffix(line, "}") {
			t.Fatalf("artifact line is not a JSON object: %q", line)
		}
	}
}
