package cegis

import (
	"context"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/bpf"
	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/word"
)

func careGrid(stages, width int) pisa.GridSpec {
	return pisa.GridSpec{
		Stages:       stages,
		Width:        width,
		WordWidth:    10,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: alu.Counter},
	}
}

func careSynth(t *testing.T, src, care string, g pisa.GridSpec) *Result {
	t.Helper()
	prog := parser.MustParse("t", src)
	opts := Options{Seed: 3}
	if care != "" {
		c, err := parser.ParseExpr(care)
		if err != nil {
			t.Fatal(err)
		}
		opts.Care = c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := synthesizeGrid(ctx, prog, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestApproximationSavesAStage is §5.2's headline: pkt.out = pkt.a & 7
// needs two stages exactly (materialize the mask, then AND), but under the
// care predicate 0 <= pkt.a < 8 (comparisons are signed, so both bounds
// matter) the AND is the identity and fits one stage.
func TestApproximationSavesAStage(t *testing.T) {
	src := "pkt.out = pkt.a & 7;"

	exact := careSynth(t, src, "", careGrid(1, 2))
	if exact.Feasible {
		t.Fatal("mask-AND should not fit one stage exactly")
	}
	exact2 := careSynth(t, src, "", careGrid(2, 2))
	if !exact2.Feasible {
		t.Fatal("mask-AND should fit two stages exactly")
	}

	approxRes := careSynth(t, src, "pkt.a >= 0 && pkt.a < 8", careGrid(1, 2))
	if !approxRes.Feasible {
		t.Fatal("under care 0<=a<8 one stage must suffice")
	}

	// The approximate configuration must be exact on every caring input...
	const w = word.Width(10)
	cfg := approxRes.TargetConfig
	for a := uint64(0); a < 8; a++ {
		out, _ := cfg.Exec(map[string]uint64{"a": a, "out": 0}, nil)
		if out["out"] != a&7 {
			t.Fatalf("caring input %d: out=%d want %d", a, out["out"], a&7)
		}
	}
	// ...and is allowed (indeed expected) to differ somewhere outside.
	differs := false
	for a := uint64(8); a < w.Size(); a++ {
		out, _ := cfg.Exec(map[string]uint64{"a": a, "out": 0}, nil)
		if out["out"] != a&7 {
			differs = true
			break
		}
	}
	if !differs {
		t.Log("note: approximation happened to be exact everywhere (legal but unexpected)")
	}
}

// TestNilCareIsExact: with no care predicate the result must satisfy the
// spec on all inputs, same as plain CEGIS.
func TestNilCareIsExact(t *testing.T) {
	src := "pkt.out = pkt.a + 3;"
	res := careSynth(t, src, "", careGrid(1, 2))
	if !res.Feasible {
		t.Fatal("increment should fit")
	}
	prog := parser.MustParse("t", src)
	const w = word.Width(6)
	cfg := *gridConfig(res)
	cfg.Grid.WordWidth = w
	in := interp.MustNew(w)
	for a := uint64(0); a < w.Size(); a++ {
		snap := interp.NewSnapshot()
		snap.Pkt["a"] = a
		want, _ := in.Run(prog, snap)
		got, _ := cfg.Exec(map[string]uint64{"a": a, "out": 0}, nil)
		if got["out"] != want.Pkt["out"] {
			t.Fatalf("a=%d: got %d want %d", a, got["out"], want.Pkt["out"])
		}
	}
}

// TestCareOverState: the care predicate may constrain switch state, e.g.
// only small counter values matter (the measurement-sketch scenario of
// §5.2 where counters saturate).
func TestCareOverState(t *testing.T) {
	// s doubles each packet: needs s+s. The counter ALU cannot double
	// (only +const), so exact synthesis fails at any depth on this ALU;
	// but if we only care about s == 0, s stays 0 and the constant 0
	// update works.
	src := "s = s + s;"
	g := careGrid(1, 1)
	exact := careSynth(t, src, "", g)
	if exact.Feasible {
		t.Fatal("doubling should not fit the counter ALU exactly")
	}
	res := careSynth(t, src, "s == 0", g)
	if !res.Feasible {
		t.Fatal("under care s==0 the zero counter suffices")
	}
	_, state := res.TargetConfig.Exec(map[string]uint64{}, map[string]uint64{"s": 0})
	if state["s"] != 0 {
		t.Fatalf("caring trajectory violated: s=%d", state["s"])
	}
}

// TestUnsatisfiableEvenApproximately: if no hole assignment matches even on
// the care set, the result is infeasible.
func TestUnsatisfiableEvenApproximately(t *testing.T) {
	// Care set {a=1, a=2} but output must be a*a (1 and 4): the 1-wide
	// stateless datapath has no way to square... actually a*a on {1,2}
	// equals cond-style mappings, so use a harder care set {1,2,3}:
	// outputs 1,4,9 with 9 wrapping — no single ALU op yields that.
	src := "pkt.out = pkt.a * pkt.a;"
	res := careSynth(t, src, "pkt.a == 1 || pkt.a == 2 || pkt.a == 3", careGrid(1, 2))
	if res.Feasible {
		// Verify the claim before failing the test: maybe some op does
		// interpolate; then this test's premise is wrong and we check
		// correctness on the care set instead.
		for _, a := range []uint64{1, 2, 3} {
			out, _ := res.TargetConfig.Exec(map[string]uint64{"a": a, "out": 0}, nil)
			if out["out"] != a*a {
				t.Fatalf("feasible result wrong on care set: a=%d out=%d", a, out["out"])
			}
		}
		t.Log("note: hardware interpolated the care set; approximation succeeded legitimately")
	}
}

func TestCapacityPrecheck(t *testing.T) {
	src := "pkt.a = pkt.b + pkt.c;"
	res := careSynth(t, src, "", careGrid(1, 2)) // 3 fields, 2 containers
	if res.Feasible {
		t.Fatal("capacity violation should be infeasible")
	}
}

func TestCareTimeoutReported(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := parser.MustParse("t", "pkt.out = pkt.a + 1;")
	res, err := synthesizeGrid(ctx, prog, careGrid(1, 2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("cancelled context must report TimedOut")
	}
}

// TestCareOnBPF: care is a property of the loop, not the target. On the
// register machine (two-operand ALU ops) the exact mask-AND needs a move
// and an AND; under 0 <= a < 8 the move alone suffices.
func TestCareOnBPF(t *testing.T) {
	prog := parser.MustParse("t", "pkt.out = pkt.a & 7;")
	care, err := parser.ParseExpr("pkt.a >= 0 && pkt.a < 8")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	run := func(slots int, care ast.Expr) *Result {
		t.Helper()
		res, err := SynthesizeOn(ctx, prog, bpf.Backend{}, slots, Options{Seed: 3, Care: care})
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("%d slots timed out", slots)
		}
		return res
	}
	if run(1, nil).Feasible {
		t.Fatal("mask-AND should not fit one slot exactly")
	}
	if !run(2, nil).Feasible {
		t.Fatal("mask-AND should fit two slots exactly")
	}
	res := run(1, care)
	if !res.Feasible {
		t.Fatal("under care 0<=a<8 one slot must suffice")
	}
	for a := uint64(0); a < 8; a++ {
		out, _ := res.TargetConfig.Exec(map[string]uint64{"a": a}, nil)
		if out["out"] != a {
			t.Fatalf("caring input %d: out=%d want %d\n%s", a, out["out"], a, res.TargetConfig)
		}
	}
}

// TestCareMustNameProgramVariables: a care predicate that reads a field or
// state variable the program never mentions is rejected before any
// solving, instead of silently reading 0.
func TestCareMustNameProgramVariables(t *testing.T) {
	prog := parser.MustParse("t", "int s = 0; s = s + pkt.a;")
	for _, c := range []string{"pkt.b < 8", "s + t", "pkt.a < 8 && pkt.s == 0"} {
		care, err := parser.ParseExpr(c)
		if err != nil {
			t.Fatal(err)
		}
		res, err := synthesizeGrid(context.Background(), prog, careGrid(1, 1), Options{Care: care})
		if err == nil {
			t.Errorf("care %q: want an error, got %+v", c, res)
		}
	}
	care, err := parser.ParseExpr("pkt.a < 8 && s == 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := synthesizeGrid(context.Background(), prog, careGrid(1, 1), Options{Care: care}); err != nil {
		t.Fatalf("care over the program's own variables: %v", err)
	}
}
