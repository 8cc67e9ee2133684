package cegis

import (
	"context"
	"testing"

	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/pisa"
)

func explain(t *testing.T, src string, stages, width int, kind alu.Kind, opts Options) *ExplainResult {
	t.Helper()
	prog := parser.MustParse("test", src)
	g := grid(stages, width, kind, 4)
	be := pisa.Backend{Grid: g}
	res, err := Explain(context.Background(), prog, be, g.Stages, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestExplainBlamesInfeasibleOutput(t *testing.T) {
	// Field*field multiplication is beyond the ALUs; pkt.c passes through
	// trivially. The minimal core must blame pkt.a's computation and not
	// pkt.c's.
	res := explain(t, "pkt.a = pkt.a * pkt.b; pkt.c = pkt.c;", 1, 3, alu.Counter, Options{Seed: 1})
	if res.Feasible || res.TimedOut || res.CapacityExceeded {
		t.Fatalf("expected a clean infeasibility explanation, got %+v", res)
	}
	if !res.Minimal {
		t.Fatal("minimization should complete without a deadline")
	}
	if len(res.Core) == 0 {
		t.Fatal("empty blame set for an infeasible program")
	}
	blamed := map[string]bool{}
	for _, g := range res.Core {
		blamed[g] = true
	}
	if !blamed["out:pkt.a"] {
		t.Fatalf("core should blame out:pkt.a, got %v", res.Core)
	}
	if blamed["out:pkt.c"] {
		t.Fatalf("trivial passthrough output blamed: %v", res.Core)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("explanation should carry an effort timeline")
	}
	// Every core member must be a known group.
	known := map[string]bool{}
	for _, g := range res.Groups {
		known[g] = true
	}
	for _, g := range res.Core {
		if !known[g] {
			t.Fatalf("core group %q not in group inventory %v", g, res.Groups)
		}
	}
}

func TestExplainCapacityExceeded(t *testing.T) {
	res := explain(t, "pkt.tmp = pkt.a; pkt.a = pkt.b; pkt.b = pkt.tmp;", 2, 2, alu.Counter, Options{Seed: 1})
	if !res.CapacityExceeded {
		t.Fatal("3 fields in 2 containers should report capacity exceeded")
	}
	if len(res.Core) != 0 {
		t.Fatalf("capacity rejection should have no core, got %v", res.Core)
	}
}

func TestExplainFeasibleProgramFindsNoCore(t *testing.T) {
	res := explain(t, "pkt.a = pkt.a + 1;", 1, 1, alu.Counter, Options{Seed: 1})
	if !res.Feasible {
		t.Fatalf("feasible program should be detected by the gated re-run, got %+v", res)
	}
	if len(res.Core) != 0 {
		t.Fatalf("feasible run must not produce a core, got %v", res.Core)
	}
}

func TestExplainCoreIsMinimalByReSolve(t *testing.T) {
	// Two states with a cross-stage dependency cannot fit one stage: the
	// classic depth-floor infeasibility. Dropping the whole blame set must
	// make the remaining groups satisfiable — verified here structurally:
	// minimization already re-solved every single-drop subset, so just
	// assert the advertised minimality flag and that the core is a strict
	// subset of the groups (the trivial "blame everything" answer would
	// indicate minimization never ran).
	res := explain(t, "int s1 = 0; int s2 = 0; s2 = s1; s1 = s1 + pkt.x;", 1, 2, alu.PredRaw, Options{Seed: 1})
	if res.Feasible || res.TimedOut || res.CapacityExceeded {
		t.Fatalf("expected infeasibility, got %+v", res)
	}
	if !res.Minimal || len(res.Core) == 0 {
		t.Fatalf("expected a minimal nonempty core, got %+v", res)
	}
	if len(res.Core) >= len(res.Groups) {
		t.Fatalf("core %v should be a strict subset of groups %v", res.Core, res.Groups)
	}
}

func TestBlamedStatements(t *testing.T) {
	prog := parser.MustParse("test", "int seen = 0;\nif (seen == 0) { pkt.new_flow = 1; seen = 1; } else { pkt.new_flow = 0; }")
	stmts := BlamedStatements(prog, []string{"out:pkt.new_flow", "domain:state-alloc"})
	if len(stmts) != 2 {
		t.Fatalf("BlamedStatements = %v, want both branch assignments to pkt.new_flow", stmts)
	}
	for _, s := range stmts {
		if s != "pkt.new_flow = 1;" && s != "pkt.new_flow = 0;" {
			t.Fatalf("unexpected blamed statement %q", s)
		}
	}
	if got := BlamedStatements(prog, []string{"domain:mux-range"}); got != nil {
		t.Fatalf("domain-only blame should map to no statements, got %v", got)
	}
	if got := BlamedStatements(prog, []string{"out:state.seen"}); len(got) != 1 || got[0] != "seen = 1;" {
		t.Fatalf("state blame = %v, want [seen = 1;]", got)
	}
}
