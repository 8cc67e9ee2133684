package superopt

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/parser"
	"repro/internal/word"
)

func optimize(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	prog := parser.MustParse("t", src)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	res, err := Superoptimize(ctx, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkSeq verifies the found sequence against the spec exhaustively at a
// small width.
func checkSeq(t *testing.T, src string, seq *Sequence) {
	t.Helper()
	prog := parser.MustParse("t", src)
	const w = word.Width(6)
	in := interp.MustNew(w)
	exec := seq.WithRunWidth(w).NewExecutor()
	n := len(seq.Inputs)
	counts := make([]uint64, n)
	got := make([]uint64, n)
	for {
		snap := interp.NewSnapshot()
		for i, f := range seq.Inputs {
			snap.Pkt[f] = counts[i]
		}
		want, err := in.Run(prog, snap)
		if err != nil {
			t.Fatal(err)
		}
		copy(got, counts)
		exec(got, nil)
		for i, o := range seq.Inputs {
			if got[i] != want.Pkt[o] {
				t.Fatalf("input %v: %s = %d, want %d\n%s", counts, o, got[i], want.Pkt[o], seq)
			}
		}
		i := 0
		for ; i < n; i++ {
			counts[i]++
			if counts[i] < w.Size() {
				break
			}
			counts[i] = 0
		}
		if i == n {
			return
		}
	}
}

// TestFigure1TimesFive is the paper's opening example: x*5 on a machine
// with no multiplier superoptimizes to shift-and-add — exactly 2
// instructions.
func TestFigure1TimesFive(t *testing.T) {
	src := "pkt.y = pkt.x * 5;"
	res := optimize(t, src, Options{Seed: 1})
	if !res.Feasible {
		t.Fatalf("x*5 must be expressible (timed out: %v)", res.TimedOut)
	}
	if res.Length != 2 {
		t.Fatalf("x*5 should need exactly 2 instructions, got %d:\n%s", res.Length, res.Seq)
	}
	checkSeq(t, src, res.Seq)
}

// TestIdentityIsZeroInstructions: an output equal to an input needs no
// instructions at all, only output routing.
func TestIdentityIsZeroInstructions(t *testing.T) {
	src := "pkt.y = pkt.x;"
	res := optimize(t, src, Options{Seed: 1})
	if !res.Feasible || res.Length != 0 {
		t.Fatalf("identity should be 0 instructions, got %d", res.Length)
	}
	checkSeq(t, src, res.Seq)
}

// TestAbsorptionIdentity: (x | y) + (x & y) == x + y, a classic
// superoptimizer discovery — 3 ops in the source, 1 in the output.
func TestAbsorptionIdentity(t *testing.T) {
	src := "pkt.r = (pkt.x | pkt.y) + (pkt.x & pkt.y);"
	res := optimize(t, src, Options{Seed: 2})
	if !res.Feasible {
		t.Fatal("must be feasible")
	}
	if res.Length != 1 {
		t.Fatalf("want the 1-instruction add, got %d:\n%s", res.Length, res.Seq)
	}
	checkSeq(t, src, res.Seq)
}

// TestTimesFifteen: x*15 = (x<<4) - x, 2 instructions.
func TestTimesFifteen(t *testing.T) {
	src := "pkt.y = pkt.x * 15;"
	res := optimize(t, src, Options{Seed: 3})
	if !res.Feasible {
		t.Fatal("x*15 must be expressible")
	}
	if res.Length != 2 {
		t.Fatalf("x*15 should need 2 instructions (shl, sub), got %d:\n%s", res.Length, res.Seq)
	}
	checkSeq(t, src, res.Seq)
}

// TestInfeasibleAtLengthBudget: x*y (general multiply) cannot be done in
// a couple of shift/add instructions.
func TestInfeasibleAtLengthBudget(t *testing.T) {
	src := "pkt.r = pkt.x * pkt.y;"
	res := optimize(t, src, Options{MaxInstrs: 2, Seed: 1})
	if res.Feasible {
		t.Fatalf("general multiply in <=2 instructions should be infeasible:\n%s", res.Seq)
	}
	if res.TimedOut {
		t.Fatal("should be proven infeasible, not timed out")
	}
	if len(res.Probes) != 3 { // lengths 0, 1, 2
		t.Fatalf("probes = %v", res.Probes)
	}
}

// TestTernarySpec exercises the conditional-move instruction.
func TestTernarySpec(t *testing.T) {
	src := "pkt.r = pkt.c ? pkt.x : 0;"
	res := optimize(t, src, Options{Seed: 4})
	if !res.Feasible {
		t.Fatal("conditional move should be feasible")
	}
	if res.Length > 1 {
		t.Fatalf("cmove should need at most 1 instruction, got %d:\n%s", res.Length, res.Seq)
	}
	checkSeq(t, src, res.Seq)
}

// TestMultipleOutputs: two outputs sharing a subexpression should share
// instructions.
func TestMultipleOutputs(t *testing.T) {
	src := "pkt.r = pkt.x + pkt.y; pkt.q = pkt.x + pkt.y;"
	res := optimize(t, src, Options{Seed: 5})
	if !res.Feasible || res.Length != 1 {
		t.Fatalf("shared subexpression should cost 1 instruction, got %d", res.Length)
	}
	checkSeq(t, src, res.Seq)
}

func TestRejectsStatefulPrograms(t *testing.T) {
	prog := parser.MustParse("t", "s = s + 1;")
	if _, err := Superoptimize(context.Background(), prog, Options{}); err == nil {
		t.Fatal("stateful programs should be rejected")
	}
	prog = parser.MustParse("t", "x = pkt.a;") // writes state, no fields written
	if _, err := Superoptimize(context.Background(), prog, Options{}); err == nil {
		t.Fatal("no-output programs should be rejected")
	}
}

func TestTimeout(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := parser.MustParse("t", "pkt.y = pkt.x * 5;")
	res, err := Superoptimize(ctx, prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("cancelled context must report TimedOut")
	}
}

func TestSequenceRendering(t *testing.T) {
	src := "pkt.y = pkt.x * 5;"
	res := optimize(t, src, Options{Seed: 1})
	out := res.Seq.String()
	if !strings.Contains(out, "%x") || !strings.Contains(out, "%y <-") {
		t.Fatalf("rendering should name inputs and outputs:\n%s", out)
	}
	for _, ins := range res.Seq.Instrs {
		if ins.Op.String() == "" || strings.HasPrefix(ins.Op.String(), "op") {
			t.Fatalf("bad opcode in %v", ins)
		}
	}
	if Opcode(99).String() != "op99" {
		t.Fatal("out-of-range opcode string")
	}
}

func TestDeterminism(t *testing.T) {
	src := "pkt.y = pkt.x * 5;"
	a := optimize(t, src, Options{Seed: 7})
	b := optimize(t, src, Options{Seed: 7})
	if a.Seq.String() != b.Seq.String() {
		t.Fatalf("same seed produced different sequences:\n%s\nvs\n%s", a.Seq, b.Seq)
	}
}
