package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/programs"
)

// TestExplainDepthBelowFloorPISA is the acceptance scenario on the pisa
// target: marple_reorder is the corpus program with a proven depth floor
// of 2 (every other benchmark folds into one stage under its paired
// stateful ALU), so compiling it at max-stages 1 must come back
// infeasible with an explanation naming stage depth as the binding
// resource and a nonempty blame set proven minimal by re-solve.
func TestExplainDepthBelowFloorPISA(t *testing.T) {
	for _, name := range []string{"marple_reorder"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			b, err := programs.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()
			opts := benchOptions(b)
			opts.MaxStages = 1
			opts.Explain = true
			rep, err := Compile(ctx, b.Parse(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Feasible || rep.TimedOut {
				t.Fatalf("%s at 1 stage should be infeasible, got %+v", name, rep)
			}
			exp := rep.Explanation
			if exp == nil {
				t.Fatal("infeasible compile with Explain set must carry an explanation")
			}
			if exp.Dimension != DimStageDepth {
				t.Fatalf("binding dimension = %q (core %v), want %q", exp.Dimension, exp.BlamedGroups, DimStageDepth)
			}
			if !exp.Minimal || len(exp.BlamedGroups) == 0 {
				t.Fatalf("expected a minimal nonempty blame set, got %+v", exp)
			}
			if len(exp.BlamedStatements) == 0 {
				t.Fatalf("blame set %v should map to source statements", exp.BlamedGroups)
			}
			if len(exp.Timeline) == 0 {
				t.Fatal("explanation should carry an effort timeline")
			}
			if !strings.Contains(exp.Render(), "binding resource: stage-depth") {
				t.Fatalf("rendered report should name the binding resource:\n%s", exp.Render())
			}
		})
	}
}

// TestExplainMetrics: the forensics case CI runs (marple_reorder, pred_raw,
// width 2, one stage) folds its explain span into the explain.* counters,
// and the forensics rerun stays unmetered: the registry's solver effort is
// the search's alone.
func TestExplainMetrics(t *testing.T) {
	b, err := programs.ByName("marple_reorder")
	if err != nil {
		t.Fatal(err)
	}
	opts := benchOptions(b)
	opts.MaxStages = 1
	opts.Explain = true
	reg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(obs.ContextWithMetrics(context.Background(), reg), 4*time.Minute)
	defer cancel()
	rep, err := Compile(ctx, b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	exp := rep.Explanation
	if rep.Feasible || rep.TimedOut || exp == nil || !exp.Minimal || exp.Iters == 0 {
		t.Fatalf("want an infeasible compile with a minimal explanation, got %+v / %+v", rep, exp)
	}
	count := func(name string) int64 { return reg.Counter(name).Value() }
	if got := count("explain.runs"); got != 1 {
		t.Errorf("explain.runs = %d, want 1", got)
	}
	if got := count("explain.minimal_cores"); got != 1 {
		t.Errorf("explain.minimal_cores = %d, want 1", got)
	}
	if got := count("explain.blamed_groups"); got != int64(len(exp.BlamedGroups)) {
		t.Errorf("explain.blamed_groups = %d, explanation blames %v", got, exp.BlamedGroups)
	}
	if got := count("explain.errors") + count("explain.timeouts"); got != 0 {
		t.Errorf("explain.errors + explain.timeouts = %d, want 0", got)
	}
	eff := rep.Effort()
	if got := count("sat.conflicts"); got != eff.Conflicts {
		t.Errorf("sat.conflicts = %d, report %d: the forensics rerun was metered", got, eff.Conflicts)
	}
	if got := count("cegis.iterations"); got != int64(eff.Iters) {
		t.Errorf("cegis.iterations = %d, report %d: the forensics rerun was metered", got, eff.Iters)
	}
}

// TestExplainSlotsBelowBudgetBPF: the same scenario on the register
// machine — corpus programs compiled below their hand-worked slot budgets
// must blame the instruction-slot axis.
func TestExplainSlotsBelowBudgetBPF(t *testing.T) {
	cases := []struct {
		name  string
		slots int
	}{
		{"marple_new_flow", 3},
		{"stateful_fw", 3},
		{"sampling", 5},
		{"blue_decrease", 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b, err := programs.ByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
			defer cancel()
			rep, err := Compile(ctx, b.Parse(), Options{
				Target:       "bpf",
				MaxStages:    tc.slots,
				FixedStages:  true,
				StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
				StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
				Seed:         7,
				Explain:      true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Feasible || rep.TimedOut {
				t.Fatalf("%s at %d slots should be infeasible, got feas=%v to=%v",
					tc.name, tc.slots, rep.Feasible, rep.TimedOut)
			}
			exp := rep.Explanation
			if exp == nil {
				t.Fatal("infeasible compile with Explain set must carry an explanation")
			}
			if exp.Dimension != DimSlots {
				t.Fatalf("binding dimension = %q (core %v), want %q", exp.Dimension, exp.BlamedGroups, DimSlots)
			}
			if !exp.Minimal || len(exp.BlamedGroups) == 0 {
				t.Fatalf("expected a minimal nonempty blame set, got %+v", exp)
			}
		})
	}
}

// TestExplainCapacityRejection: a capacity pre-check rejection (more
// fields than containers) cannot run the solver but must still name the
// binding dimension.
func TestExplainCapacityRejection(t *testing.T) {
	prog := parser.MustParse("wide", "pkt.tmp = pkt.a; pkt.a = pkt.b; pkt.b = pkt.tmp;")
	rep, err := Compile(context.Background(), prog, Options{
		Width:        2,
		MaxStages:    2,
		StatelessALU: alu.Stateless{ConstBits: 4},
		StatefulALU:  alu.Stateful{Kind: alu.Counter, ConstBits: 4},
		Seed:         1,
		Explain:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("3 fields in 2 containers should be infeasible")
	}
	if rep.Explanation == nil || rep.Explanation.Dimension != DimALUBudget {
		t.Fatalf("capacity rejection should blame %s, got %+v", DimALUBudget, rep.Explanation)
	}
}

// TestExplainOffByDefault: without Options.Explain the report must not
// carry an explanation — the forensics pass is strictly opt-in.
func TestExplainOffByDefault(t *testing.T) {
	prog := parser.MustParse("hard", "pkt.a = pkt.a * pkt.b;")
	rep, err := Compile(context.Background(), prog, Options{
		Width:        2,
		MaxStages:    1,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: alu.Counter},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("field multiply should be infeasible")
	}
	if rep.Explanation != nil {
		t.Fatal("explanation attached without Options.Explain")
	}
}

// TestExplainFeasibleCompileHasNoExplanation: a successful compile never
// runs forensics even when asked.
func TestExplainFeasibleCompileHasNoExplanation(t *testing.T) {
	prog := parser.MustParse("easy", "pkt.a = pkt.a + 1;")
	rep, err := Compile(context.Background(), prog, Options{
		Width:        1,
		MaxStages:    1,
		StatelessALU: alu.Stateless{ConstBits: 4},
		StatefulALU:  alu.Stateful{Kind: alu.Counter, ConstBits: 4},
		Seed:         1,
		Explain:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible || rep.Explanation != nil {
		t.Fatalf("feasible compile must not carry an explanation: feas=%v exp=%+v",
			rep.Feasible, rep.Explanation)
	}
}

// TestExplainOpcodeMaskBlamed: restricting the bpf opcode vocabulary so
// the needed operation is excluded must pin the opcode mask as the
// binding dimension, not the slot count.
func TestExplainOpcodeMaskBlamed(t *testing.T) {
	// pkt.a = pkt.a + pkt.b needs an add; allow only mov/nop.
	prog := parser.MustParse("addprog", "pkt.a = pkt.a + pkt.b;")
	rep, err := Compile(context.Background(), prog, Options{
		Target:        "bpf",
		MaxStages:     4,
		FixedStages:   true,
		BPFOpcodeMask: 1 | 1<<1, // OpNop | OpMov
		StatelessALU:  alu.Stateless{ConstBits: 4},
		StatefulALU:   alu.Stateful{Kind: alu.Counter, ConstBits: 4},
		Seed:          1,
		Explain:       true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible {
		t.Fatal("add without an add opcode should be infeasible")
	}
	exp := rep.Explanation
	if exp == nil {
		t.Fatal("missing explanation")
	}
	if exp.Dimension != DimOpcodeMask {
		t.Fatalf("binding dimension = %q (core %v), want %q", exp.Dimension, exp.BlamedGroups, DimOpcodeMask)
	}
}
