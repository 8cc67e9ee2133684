package cegis

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/word"
)

func grid(stages, width int, kind alu.Kind, constBits int) pisa.GridSpec {
	return pisa.GridSpec{
		Stages:       stages,
		Width:        width,
		WordWidth:    10,
		StatelessALU: alu.Stateless{ConstBits: constBits},
		StatefulALU:  alu.Stateful{Kind: kind, ConstBits: constBits},
	}
}

// synthesizeGrid runs CEGIS on the PISA grid g at its own stage count.
func synthesizeGrid(ctx context.Context, prog *ast.Program, g pisa.GridSpec, opts Options) (*Result, error) {
	return SynthesizeOn(ctx, prog, pisa.Backend{Grid: g}, g.Stages, opts)
}

// gridConfig is a feasible result's PISA configuration.
func gridConfig(res *Result) *pisa.Config { return res.TargetConfig.(*pisa.Config) }

func synth(t *testing.T, src string, g pisa.GridSpec, opts Options) *Result {
	t.Helper()
	prog := parser.MustParse("test", src)
	res, err := synthesizeGrid(context.Background(), prog, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// tracedSynth is synth with a tracer installed; it also returns the
// well-formed record stream.
func tracedSynth(t *testing.T, src string, g pisa.GridSpec, opts Options) (*Result, []obs.Record) {
	t.Helper()
	tr := obs.NewTracer()
	prog := parser.MustParse("test", src)
	res, err := synthesizeGrid(obs.ContextWithTracer(context.Background(), tr), prog, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	recs := tr.Records()
	if err := obs.CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
	return res, recs
}

// spanEnd is one ended span of a record stream: its start record and
// its end attributes.
type spanEnd struct {
	start obs.Record
	attrs map[string]any
}

// spanEnds lists the stream's ended spans in end order, and indexes
// every start record by id.
func spanEnds(recs []obs.Record) ([]spanEnd, map[int64]obs.Record) {
	starts := map[int64]obs.Record{}
	var ends []spanEnd
	for _, r := range recs {
		switch r.Type {
		case obs.RecordStart:
			starts[r.ID] = r
		case obs.RecordEnd:
			ends = append(ends, spanEnd{starts[r.ID], r.Attrs})
		}
	}
	return ends, starts
}

// phaseEnds keeps the synth and verify span ends.
func phaseEnds(recs []obs.Record) []spanEnd {
	ends, _ := spanEnds(recs)
	var out []spanEnd
	for _, e := range ends {
		if e.start.Name == "synth" || e.start.Name == "verify" {
			out = append(out, e)
		}
	}
	return out
}

func TestStatelessIncrement(t *testing.T) {
	res := synth(t, "pkt.a = pkt.a + 1;", grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("increment should fit a 1x1 grid")
	}
	outPkt, _ := res.TargetConfig.Exec(map[string]uint64{"a": 41}, nil)
	if outPkt["a"] != 42 {
		t.Fatalf("a = %d, want 42", outPkt["a"])
	}
}

func TestTwoFieldSwapNeedsWidth2(t *testing.T) {
	src := "pkt.tmp = pkt.a; pkt.a = pkt.b; pkt.b = pkt.tmp;"
	// Three fields cannot fit two containers: immediate infeasibility.
	res := synth(t, src, grid(2, 2, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible || res.Iters != 0 {
		t.Fatal("3 fields in 2 containers must be rejected without search")
	}
	// With three containers it fits.
	res = synth(t, src, grid(1, 3, alu.Counter, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("swap should fit a 1x3 grid")
	}
	outPkt, _ := res.TargetConfig.Exec(map[string]uint64{"a": 5, "b": 9, "tmp": 0}, nil)
	if outPkt["a"] != 9 || outPkt["b"] != 5 || outPkt["tmp"] != 5 {
		t.Fatalf("swap result %v", outPkt)
	}
}

func TestInfeasibleProgramRejected(t *testing.T) {
	// Multiplication of two packet fields is beyond both ALU types.
	res := synth(t, "pkt.a = pkt.a * pkt.b;", grid(1, 2, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible {
		t.Fatal("field*field should be infeasible on this hardware")
	}
	if res.TimedOut {
		t.Fatal("should be proven infeasible, not timed out")
	}
}

func TestStatefulCounter(t *testing.T) {
	// The appendix's counter ALU can add a constant to state; the packet
	// field must simultaneously pass through untouched.
	res := synth(t, "total = total + 2;", grid(1, 1, alu.Counter, 4), Options{Seed: 3})
	if !res.Feasible {
		t.Fatal("constant counter should fit the counter ALU")
	}
	state := map[string]uint64{"total": 0}
	var pkt map[string]uint64
	for i := 0; i < 5; i++ {
		pkt, state = res.TargetConfig.Exec(map[string]uint64{"v": 7}, state)
		if pkt["v"] != 7 {
			t.Fatalf("packet field clobbered: %v", pkt)
		}
	}
	if state["total"] != 10 {
		t.Fatalf("total = %d, want 10", state["total"])
	}
}

func TestStatefulAccumulatorNeedsPredRaw(t *testing.T) {
	// total += pkt.v exceeds the counter ALU (which only adds constants)
	// but fits pred_raw, whose update operand can be the packet.
	src := "total = total + pkt.v;"
	res := synth(t, src, grid(1, 1, alu.Counter, 4), Options{Seed: 3})
	if res.Feasible {
		t.Fatal("counter ALU cannot add a packet value to state")
	}
	res = synth(t, src, grid(1, 1, alu.PredRaw, 4), Options{Seed: 3})
	if !res.Feasible {
		t.Fatal("accumulator should fit pred_raw")
	}
	state := map[string]uint64{"total": 0}
	for i := uint64(1); i <= 5; i++ {
		_, state = res.TargetConfig.Exec(map[string]uint64{"v": i}, state)
	}
	if state["total"] != 15 {
		t.Fatalf("total = %d, want 15", state["total"])
	}
}

func TestSamplingEndToEnd(t *testing.T) {
	src := `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`
	res := synth(t, src, grid(1, 2, alu.IfElseRaw, 4), Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("sampling should fit one stage with if_else_raw")
	}
	state := map[string]uint64{"count": 0}
	samples := 0
	for i := 0; i < 33; i++ {
		var pkt map[string]uint64
		pkt, state = res.TargetConfig.Exec(map[string]uint64{"sample": 0}, state)
		if pkt["sample"] == 1 {
			samples++
		}
	}
	if samples != 3 {
		t.Fatalf("sampled %d of 33, want 3", samples)
	}
}

// TestCounterexampleLoopConverges uses a program whose constant (20)
// exceeds the synthesis width's value range, so narrow-width synthesis
// cannot pin it down and verification counterexamples must drive
// convergence (the §3.1 outer loop).
func TestCounterexampleLoopConverges(t *testing.T) {
	src := "pkt.hit = pkt.a == 20;"
	res, recs := tracedSynth(t, src, grid(1, 2, alu.Counter, 5), Options{
		Seed:       5,
		SynthWidth: 4, // 20 wraps to 4 at this width: ambiguous constants
	})
	if !res.Feasible {
		t.Fatal("equality test should be feasible")
	}
	outPkt, _ := res.TargetConfig.Exec(map[string]uint64{"a": 20, "hit": 9}, nil)
	if outPkt["hit"] != 1 {
		t.Fatalf("hit = %d, want 1", outPkt["hit"])
	}
	outPkt, _ = res.TargetConfig.Exec(map[string]uint64{"a": 4, "hit": 9}, nil)
	if outPkt["hit"] != 0 {
		t.Fatalf("hit(4) = %d, want 0 — synthesized constant wrapped", outPkt["hit"])
	}
	// The trace must show at least one verify-phase counterexample.
	cexs := 0
	for _, e := range phaseEnds(recs) {
		if e.start.Name == "verify" && e.attrs["outcome"] == "sat" {
			cexs++
		}
	}
	if cexs == 0 {
		t.Fatal("expected at least one counterexample at synth width 4")
	}
	if res.Tests <= 3 {
		t.Fatalf("tests = %d; counterexamples should have grown the set", res.Tests)
	}
}

// TestNarrowSynthWidthIsClamped checks the MinWidth safeguard: asking for a
// 2-bit synthesis width must not mis-synthesize or spuriously reject —
// control holes would alias below 4 bits, so the engine clamps.
func TestNarrowSynthWidthIsClamped(t *testing.T) {
	res := synth(t, "pkt.hit = pkt.a == 10;", grid(1, 2, alu.Counter, 4), Options{
		Seed:       5,
		SynthWidth: 2,
	})
	if !res.Feasible {
		t.Fatal("clamped narrow synthesis should still succeed")
	}
	outPkt, _ := res.TargetConfig.Exec(map[string]uint64{"a": 10, "hit": 0}, nil)
	if outPkt["hit"] != 1 {
		t.Fatalf("hit = %d, want 1", outPkt["hit"])
	}
}

func TestTimeoutReported(t *testing.T) {
	// An already-expired context must yield TimedOut, not an error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prog := parser.MustParse("t", "pkt.a = pkt.a + 1;")
	res, err := synthesizeGrid(ctx, prog, grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut || res.Feasible {
		t.Fatalf("expired context: TimedOut=%v Feasible=%v", res.TimedOut, res.Feasible)
	}
}

func TestIndicatorAllocationMode(t *testing.T) {
	// The indicator-variable allocation (Figure 4, left) must synthesize
	// the same programs as canonical allocation.
	src := "pkt.b = pkt.a + pkt.b;"
	g := grid(1, 2, alu.Counter, 4)
	prog := parser.MustParse("test", src)
	res, err := SynthesizeOn(context.Background(), prog, pisa.Backend{Grid: g, IndicatorAlloc: true}, g.Stages, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("indicator allocation should also fit")
	}
	if gridConfig(res).Values.FieldAlloc == nil {
		t.Fatal("indicator mode must populate the allocation matrix")
	}
	if err := res.TargetConfig.Validate(); err != nil {
		t.Fatal(err)
	}
	outPkt, _ := res.TargetConfig.Exec(map[string]uint64{"a": 3, "b": 4}, nil)
	if outPkt["b"] != 7 || outPkt["a"] != 3 {
		t.Fatalf("got %v", outPkt)
	}
}

func TestIndicatorVsCanonicalSearchSpace(t *testing.T) {
	// Figure 4's point: canonicalization removes indicator holes.
	prog := parser.MustParse("t", "pkt.b = pkt.a + pkt.b;")
	g := grid(1, 2, alu.Counter, 4)
	canon, err := synthesizeGrid(context.Background(), prog, g, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	indic, err := SynthesizeOn(context.Background(), prog, pisa.Backend{Grid: g, IndicatorAlloc: true}, g.Stages, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if indic.HoleBits <= canon.HoleBits {
		t.Fatalf("indicator mode should have more hole bits: %d vs %d", indic.HoleBits, canon.HoleBits)
	}
}

func TestConfigWidthIndependence(t *testing.T) {
	// A verified configuration must run correctly at widths below the
	// verification width too (hole values are width-independent).
	res := synth(t, "pkt.a = pkt.a + 3;", grid(1, 1, alu.Counter, 4), Options{Seed: 4})
	if !res.Feasible {
		t.Fatal("feasible expected")
	}
	for _, w := range []word.Width{4, 6, 8, 10} {
		cfg := *gridConfig(res)
		cfg.Grid.WordWidth = w
		in := interp.MustNew(w)
		prog := parser.MustParse("t", "pkt.a = pkt.a + 3;")
		for a := uint64(0); a < 16; a++ {
			snap := interp.NewSnapshot()
			snap.Pkt["a"] = a
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			got, _ := cfg.Exec(snap.Pkt, nil)
			if got["a"] != want.Pkt["a"] {
				t.Fatalf("width %d a=%d: got %d want %d", w, a, got["a"], want.Pkt["a"])
			}
		}
	}
}

func TestCanonicalVars(t *testing.T) {
	prog := parser.MustParse("t", "z = pkt.q + y; pkt.b = z;")
	fields, states := CanonicalVars(prog)
	if len(fields) != 2 || fields[0] != "b" || fields[1] != "q" {
		t.Fatalf("fields = %v", fields)
	}
	if len(states) != 2 || states[0] != "y" || states[1] != "z" {
		t.Fatalf("states = %v", states)
	}
}

func TestOpcodeMaskRestriction(t *testing.T) {
	// With an arithmetic-only stateless ALU, a bitwise program must be
	// infeasible (the §3.1 opcode-restriction heuristic's failure side).
	g := grid(1, 2, alu.Counter, 4)
	g.StatelessALU.OpcodeMask = alu.ArithOnlyMask
	res := synth(t, "pkt.a = pkt.a ^ pkt.b;", g, Options{Seed: 1})
	if res.Feasible {
		t.Fatal("xor should be infeasible under the arithmetic-only mask")
	}
	// But an arithmetic program still compiles.
	res = synth(t, "pkt.a = pkt.a + pkt.b;", g, Options{Seed: 1})
	if !res.Feasible {
		t.Fatal("add should remain feasible under the mask")
	}
}

// --- Figure 1: syntax-guided synthesis on the paper's opening example ------

// figure1Synthesize runs a minimal CEGIS directly over the circuit and SAT
// substrates for the sketch "x << ??(2) [+ x]": the paper's Figure 1.
// It returns (feasible, holeValue).
func figure1Synthesize(t *testing.T, withPlusX bool) (bool, uint64) {
	t.Helper()
	const w = word.Width(8)
	b := circuit.New()
	hole := b.InputWord("h", 2) // ??(2): a 2-bit hole

	synthSolver := sat.New()
	synthCNF := circuit.NewCNF(b, synthSolver)

	build := func(xv circuit.Word) circuit.Word {
		wide := make(circuit.Word, w)
		copy(wide, hole)
		for i := 2; i < int(w); i++ {
			wide[i] = circuit.False
		}
		out := b.ShlW(xv, wide)
		if withPlusX {
			out = b.AddW(out, xv)
		}
		return out
	}
	spec := func(x uint64) uint64 { return w.Mul(x, 5) }

	addTest := func(x uint64) {
		out := build(b.ConstWord(x, w))
		synthCNF.Assert(b.EqW(out, b.ConstWord(spec(x), w)))
	}
	addTest(1) // initial test input

	for iter := 0; iter < 20; iter++ {
		if synthSolver.Solve() != sat.Sat {
			return false, 0
		}
		h := synthCNF.WordValue(hole)
		// Verify exhaustively at width 8.
		cex := uint64(0)
		found := false
		for x := uint64(0); x < w.Size(); x++ {
			got := w.Shl(x, h)
			if withPlusX {
				got = w.Add(got, x)
			}
			if got != spec(x) {
				cex, found = x, true
				break
			}
		}
		if !found {
			return true, h
		}
		addTest(cex)
	}
	t.Fatal("figure 1 CEGIS did not converge")
	return false, 0
}

func TestFigure1FeasibleSketch(t *testing.T) {
	ok, h := figure1Synthesize(t, true)
	if !ok {
		t.Fatal("sketch1 (x<<h + x) should be feasible for spec x*5")
	}
	if h != 2 {
		t.Fatalf("hole = %d, want 2 (x<<2 + x == 5x)", h)
	}
}

func TestFigure1InfeasibleSketch(t *testing.T) {
	ok, _ := figure1Synthesize(t, false)
	if ok {
		t.Fatal("sketch2 (x<<h) cannot implement x*5: no power of two equals 5")
	}
}

func TestSynthesisIsDeterministic(t *testing.T) {
	src := "pkt.a = pkt.a + 1;"
	g := grid(1, 1, alu.Counter, 4)
	a := synth(t, src, g, Options{Seed: 11})
	b := synth(t, src, g, Options{Seed: 11})
	if a.Iters != b.Iters || a.Tests != b.Tests {
		t.Fatalf("same seed diverged: %d/%d vs %d/%d iters/tests", a.Iters, a.Tests, b.Iters, b.Tests)
	}
}

func TestStateCapacityPrecheck(t *testing.T) {
	src := "s1 = s1 + 1; s2 = s2 + 1;"
	res := synth(t, src, grid(2, 1, alu.Counter, 4), Options{Seed: 1})
	if res.Feasible {
		t.Fatal("2 states into a width-1 counter grid should be infeasible")
	}
	if res.Iters != 0 {
		t.Fatal("capacity violation should be rejected before search")
	}
}

// TestTraceEventsWellFormed: every synth/verify phase span sits inside a
// cegis.iter span with a positive iteration, carries an outcome, and the
// last phase to end is the verify that proved the candidate (unsat).
func TestTraceEventsWellFormed(t *testing.T) {
	_, recs := tracedSynth(t, "pkt.a = pkt.a + 1;", grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	_, starts := spanEnds(recs)
	phases := phaseEnds(recs)
	if len(phases) < 2 {
		t.Fatalf("expected synth+verify phase spans, got %d", len(phases))
	}
	for i, e := range phases {
		iter := starts[e.start.Parent]
		if iter.Name != "cegis.iter" || iter.Attrs["iter"].(int64) < 1 {
			t.Fatalf("phase %d (%s) sits under %+v", i, e.start.Name, iter)
		}
		if e.attrs["outcome"] == nil {
			t.Fatalf("phase %d (%s) ended without an outcome", i, e.start.Name)
		}
	}
	last := phases[len(phases)-1]
	if last.start.Name != "verify" || last.attrs["outcome"] != "unsat" {
		t.Fatalf("final phase should be verify/unsat, got %s/%v", last.start.Name, last.attrs["outcome"])
	}
}

func TestContextCancelMidSearch(t *testing.T) {
	// A very short timeout on a harder problem must return TimedOut
	// promptly rather than hanging.
	src := `
int last_time = 0;
int saved_hop = 0;
if (pkt.arrival - last_time > 5) { saved_hop = pkt.new_hop; }
pkt.next_hop = saved_hop;
last_time = pkt.arrival;
`
	ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
	defer cancel()
	prog := parser.MustParse("flowlet", src)
	start := time.Now()
	res, err := synthesizeGrid(ctx, prog, grid(2, 3, alu.Pair, 4), Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		// On a very fast machine the solve might legitimately finish;
		// only fail if it neither finished nor reported timeout.
		if !res.Feasible {
			t.Fatal("expected TimedOut or Feasible")
		}
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestHarnessEquivalenceOnAllInputs spot-checks the paper's Appendix A
// harness property on a synthesized config: pipeline(x) == program(x) for
// every input at a small exhaustive width.
func TestHarnessEquivalenceOnAllInputs(t *testing.T) {
	src := `
int seen = 0;
if (seen == 0) { pkt.new_flow = 1; seen = 1; }
else { pkt.new_flow = 0; }
`
	res := synth(t, src, grid(1, 2, alu.PredRaw, 4), Options{Seed: 9})
	if !res.Feasible {
		t.Fatal("new-flow should be feasible")
	}
	prog := parser.MustParse("t", src)
	const w = word.Width(6)
	cfg := *gridConfig(res)
	cfg.Grid.WordWidth = w
	in := interp.MustNew(w)
	for f := uint64(0); f < w.Size(); f++ {
		for s := uint64(0); s < w.Size(); s++ {
			snap := interp.NewSnapshot()
			snap.Pkt["new_flow"] = f
			snap.State["seen"] = s
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
			if gotPkt["new_flow"] != want.Pkt["new_flow"] || gotState["seen"] != want.State["seen"] {
				t.Fatalf("input (%d,%d): got (%d,%d) want (%d,%d)",
					f, s, gotPkt["new_flow"], gotState["seen"],
					want.Pkt["new_flow"], want.State["seen"])
			}
		}
	}
}

func TestUnknownExpressionTypeErrors(t *testing.T) {
	prog := &ast.Program{Name: "bad", Stmts: []ast.Stmt{
		&ast.Assign{LHS: ast.LValue{Name: "a", IsField: true}, RHS: nil},
	}, Init: map[string]int64{}}
	_, err := synthesizeGrid(context.Background(), prog, grid(1, 1, alu.Counter, 4), Options{Seed: 1})
	if err == nil {
		t.Fatal("nil expression should surface an error")
	}
}

// TestObservabilityAgreement runs one synthesis with every telemetry sink
// attached and checks the three views agree: the sat.solve span deltas
// under the synth and verify phases sum to the Result's cumulative
// totals, the metrics registry's counters match the same sums, and the
// span trace is well-formed with the documented hierarchy: one sat.solve
// per phase span, verify spans at both tier widths, and a last verify at
// the verification width that ends UNSAT.
func TestObservabilityAgreement(t *testing.T) {
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), reg)

	prog := parser.MustParse("test", `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`)
	res, err := synthesizeGrid(ctx, prog, grid(1, 2, alu.IfElseRaw, 4), Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("program should be feasible")
	}

	ends, starts := spanEnds(tr.Records())
	conflicts := map[string]int64{}
	var decisions, propagations int64
	for _, e := range ends {
		if e.start.Name != "sat.solve" {
			continue
		}
		phase := starts[e.start.Parent].Name
		conflicts[phase] += e.attrs["conflicts"].(int64)
		decisions += e.attrs["decisions"].(int64)
		propagations += e.attrs["propagations"].(int64)
	}
	if len(conflicts) != 2 {
		t.Fatalf("sat.solve spans sit under phases %v, want synth and verify", conflicts)
	}
	if conflicts["synth"] != res.SynthConflicts {
		t.Fatalf("synth sat.solve conflicts sum to %d, Result says %d", conflicts["synth"], res.SynthConflicts)
	}
	if conflicts["verify"] != res.VerifyConflicts {
		t.Fatalf("verify sat.solve conflicts sum to %d, Result says %d", conflicts["verify"], res.VerifyConflicts)
	}
	if decisions != res.Decisions || propagations != res.Propagations {
		t.Fatalf("sat.solve effort (%d dec, %d prop) != Result (%d, %d)",
			decisions, propagations, res.Decisions, res.Propagations)
	}

	// Registry counters are built from the same per-solve deltas.
	if got := reg.Counter("sat.conflicts").Value(); got != res.SynthConflicts+res.VerifyConflicts {
		t.Fatalf("registry sat.conflicts = %d, want %d", got, res.SynthConflicts+res.VerifyConflicts)
	}
	if got := reg.Counter("sat.decisions").Value(); got != res.Decisions {
		t.Fatalf("registry sat.decisions = %d, want %d", got, res.Decisions)
	}
	if got := reg.Counter("cegis.iterations").Value(); got != int64(res.Iters) {
		t.Fatalf("registry cegis.iterations = %d, want %d", got, res.Iters)
	}
	if got := reg.Counter("cegis.tests").Value(); got != int64(res.Tests) {
		t.Fatalf("registry cegis.tests = %d, want %d", got, res.Tests)
	}
	if got := reg.Gauge("sketch.hole_bits").Value(); got != int64(res.HoleBits) {
		t.Fatalf("registry sketch.hole_bits = %d, want %d", got, res.HoleBits)
	}
	if reg.Gauge("cnf.vars").Value() != int64(res.PeakCNFVars) {
		t.Fatalf("registry cnf.vars = %d, want %d", reg.Gauge("cnf.vars").Value(), res.PeakCNFVars)
	}
	if res.PeakCNFVars == 0 || reg.Gauge("cnf.clauses").Value() == 0 || reg.Gauge("circuit.gates").Value() == 0 {
		t.Fatalf("encoding sizes not recorded: %+v\n%s", res, reg)
	}

	// The span trace nests cegis.iter → synth/verify → sat.solve.
	recs := tr.Records()
	if err := obs.CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
	names := map[string]int{}
	for _, r := range recs {
		if r.Type == obs.RecordStart {
			names[r.Name]++
		}
	}
	if names["cegis.iter"] != res.Iters {
		t.Fatalf("%d cegis.iter spans for %d iterations", names["cegis.iter"], res.Iters)
	}
	if names["synth"] == 0 || names["verify"] == 0 {
		t.Fatalf("missing phase spans: %v", names)
	}
	// Each phase span holds exactly one sat.solve.
	solves := map[int64]int{}
	for _, e := range ends {
		if e.start.Name == "sat.solve" {
			solves[e.start.Parent]++
		}
	}
	verifyByWidth := map[int64]int64{}
	phases := phaseEnds(recs)
	for _, e := range phases {
		if solves[e.start.ID] != 1 {
			t.Fatalf("%s span %d holds %d sat.solve spans, want 1", e.start.Name, e.start.ID, solves[e.start.ID])
		}
		if e.start.Name == "verify" {
			verifyByWidth[e.attrs["width"].(int64)] += e.attrs["conflicts"].(int64)
		}
	}
	// Verify conflicts summed over both tiers match the Result.
	if len(verifyByWidth) != 2 || verifyByWidth[4]+verifyByWidth[10] != res.VerifyConflicts {
		t.Fatalf("verify conflicts by width %v, want widths 4 and 10 summing to %d", verifyByWidth, res.VerifyConflicts)
	}
	// The configuration is returned only on an UNSAT wide-tier query.
	last := phases[len(phases)-1]
	if last.start.Name != "verify" || last.attrs["width"] != int64(DefaultVerifyWidth) || last.attrs["outcome"] != "unsat" {
		t.Fatalf("last phase %s width=%v outcome=%v, want verify width=%d outcome=unsat",
			last.start.Name, last.attrs["width"], last.attrs["outcome"], DefaultVerifyWidth)
	}
}

// TestSketchMetrics: the cegis.sketch span's end folds into the hole
// gauges on both targets, with a registry and no tracer. sketch.holes and
// sketch.hole_bits equal the sketch's hole inventory count and sum, and
// the sketch.hole_bits.<class> gauges partition the total.
func TestSketchMetrics(t *testing.T) {
	for _, tc := range []struct {
		be    backend.Backend
		size  int
		class string // one class the target must report
	}{
		{pisa.Backend{Grid: grid(1, 2, alu.IfElseRaw, 4)}, 1, "hole_bits.stateless_opcode"},
		{bpf.Backend{}, 2, "hole_bits.slot_op"},
	} {
		t.Run(tc.be.Target(), func(t *testing.T) {
			reg := obs.NewRegistry()
			ctx := obs.ContextWithMetrics(context.Background(), reg)
			prog := parser.MustParse("t", "pkt.out = pkt.a & 7;")
			res, err := SynthesizeOn(ctx, prog, tc.be, tc.size, Options{Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			sk, err := tc.be.NewSketch(circuit.New(), tc.size, 2, 0)
			if err != nil {
				t.Fatal(err)
			}
			names, widths := sk.HoleInventory()
			bits := 0
			for _, w := range widths {
				bits += w
			}
			if got := reg.Gauge("sketch.holes").Value(); got != int64(len(names)) {
				t.Errorf("sketch.holes = %d, inventory has %d", got, len(names))
			}
			if got := reg.Gauge("sketch.hole_bits").Value(); got != int64(bits) || bits != res.HoleBits {
				t.Errorf("sketch.hole_bits = %d, inventory sums to %d, Result %d", got, bits, res.HoleBits)
			}
			var classTotal int64
			for name, v := range reg.Snapshot() {
				if strings.HasPrefix(name, "sketch.hole_bits.") {
					classTotal += v.(int64)
				}
			}
			if classTotal != int64(bits) {
				t.Errorf("class subtotals sum to %d, want %d:\n%s", classTotal, bits, reg)
			}
			if reg.Gauge("sketch."+tc.class).Value() == 0 {
				t.Errorf("no sketch.%s gauge:\n%s", tc.class, reg)
			}
		})
	}
}

func TestHoleClass(t *testing.T) {
	cases := map[string]string{
		"stateless_0_1_opcode": "stateless_opcode",
		"stateful_2_0_imux1":   "stateful_imux",
		"omux_0_0":             "omux",
		"salu_active_1_1":      "salu_active",
		"field_alloc_0_3":      "field_alloc",
		"slot_12_cell":         "slot_cell",
		"imm3":                 "imm",
		"oddball":              "oddball",
	}
	for in, want := range cases {
		if got := holeClass(in); got != want {
			t.Errorf("holeClass(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestWideTierCounterexample: y = x + 30 wraps to x + 14 at the 4-bit
// synthesis width, so one stage with 4-bit constants passes the narrow
// check ("addi 14"). Only the 10-bit tier refutes it: one stage is proven
// infeasible after a wide counterexample that follows a narrow pass, and
// two stages (15 + 15) are feasible and equivalent.
func TestWideTierCounterexample(t *testing.T) {
	src := "pkt.y = pkt.x + 30;"
	res, recs := tracedSynth(t, src, grid(1, 2, alu.Counter, 4), Options{Seed: 7})
	if res.Feasible || res.TimedOut {
		t.Fatalf("one stage: feasible=%v timedout=%v, want a proof of infeasibility", res.Feasible, res.TimedOut)
	}
	narrowPass, wideCex := false, false
	for _, e := range phaseEnds(recs) {
		if e.start.Name != "verify" {
			continue
		}
		switch {
		case e.attrs["width"] == int64(4) && e.attrs["outcome"] == "unsat":
			narrowPass = true
		case e.attrs["width"] == int64(10) && e.attrs["outcome"] == "sat":
			wideCex = wideCex || narrowPass
		}
	}
	if !wideCex {
		t.Fatal("one stage should be refuted by a wide counterexample after a narrow pass")
	}

	res = synth(t, src, grid(2, 2, alu.Counter, 4), Options{Seed: 7})
	if !res.Feasible {
		t.Fatal("two stages should fit x + 30")
	}
	if m := backend.CheckEquivalence(parser.MustParse("test", src), res.TargetConfig, 7); m != nil {
		t.Fatalf("two-stage config disagrees with the program: %v", m)
	}
}

// TestSingleTier: with SynthWidth == VerifyWidth the two tiers are one
// query, so every iteration that verifies runs exactly one verify span.
func TestSingleTier(t *testing.T) {
	res, recs := tracedSynth(t, "pkt.hit = pkt.a == 20;", grid(1, 2, alu.Counter, 5),
		Options{Seed: 5, SynthWidth: 10, VerifyWidth: 10})
	if !res.Feasible {
		t.Fatal("equality test should be feasible")
	}
	_, starts := spanEnds(recs)
	verifies := map[int64]int{}
	for _, e := range phaseEnds(recs) {
		if e.start.Name == "verify" {
			if e.attrs["width"] != int64(10) {
				t.Fatalf("verify at width %v, want 10", e.attrs["width"])
			}
			verifies[e.start.Parent]++
		}
	}
	for id, r := range starts {
		if r.Name == "cegis.iter" && verifies[id] != 1 {
			t.Fatalf("iteration %v ran %d verify spans, want 1", r.Attrs["iter"], verifies[id])
		}
	}
	if len(verifies) != res.Iters {
		t.Fatalf("%d iterations verified, Result says %d iterations", len(verifies), res.Iters)
	}
}

// TestSATProgressNotes lowers the progress interval so every solve with
// a conflict reports, then checks that sat.progress notes hang under
// sat.solve spans, name the phase that encloses them, and carry the
// counter keys the daemon's SSE feed and chipmunk -v print, in both
// phases.
func TestSATProgressNotes(t *testing.T) {
	defer func(old int64) { progressInterval = old }(progressInterval)
	progressInterval = 1

	_, recs := tracedSynth(t, `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`, grid(1, 2, alu.IfElseRaw, 4), Options{Seed: 7})
	_, starts := spanEnds(recs)
	seen := map[string]int{}
	for _, r := range recs {
		if r.Type != obs.RecordNote {
			continue
		}
		solve := starts[r.Parent]
		if r.Name != "sat.progress" || solve.Name != "sat.solve" {
			t.Fatalf("note %q sits under %q, want sat.progress under sat.solve", r.Name, solve.Name)
		}
		phase := starts[solve.Parent].Name
		if r.Attrs["phase"] != phase {
			t.Fatalf("note says phase %v inside a %s span", r.Attrs["phase"], phase)
		}
		for _, k := range []string{"conflicts", "decisions", "restarts"} {
			if _, ok := r.Attrs[k].(int64); !ok {
				t.Fatalf("note attrs %v lack %s", r.Attrs, k)
			}
		}
		seen[phase]++
	}
	if seen["synth"] == 0 || seen["verify"] == 0 {
		t.Fatalf("sat.progress notes per phase = %v, want both synth and verify", seen)
	}
}

// TestProgressNotesDoNotChangeSearch: a traced run reporting progress at
// every conflict reaches the untraced run's result with the same effort.
func TestProgressNotesDoNotChangeSearch(t *testing.T) {
	defer func(old int64) { progressInterval = old }(progressInterval)
	progressInterval = 1
	src := "pkt.hit = pkt.a == 20;"
	plain := synth(t, src, grid(1, 2, alu.Counter, 5), Options{Seed: 5})
	traced, _ := tracedSynth(t, src, grid(1, 2, alu.Counter, 5), Options{Seed: 5})
	if plain.Iters != traced.Iters || plain.SynthConflicts != traced.SynthConflicts ||
		plain.VerifyConflicts != traced.VerifyConflicts || plain.Decisions != traced.Decisions {
		t.Fatalf("traced run diverged: %+v vs %+v", plain, traced)
	}
}

// TestDefaultTierWidths pins the zero-value Options accessors to the
// exported defaults the solution cache folds into its content address;
// changing either constant requires a solcache.FormatVersion bump.
func TestDefaultTierWidths(t *testing.T) {
	var o Options
	if got := o.synthWidth(); got != DefaultSynthWidth {
		t.Errorf("zero-value synth width = %d, want DefaultSynthWidth (%d)", got, DefaultSynthWidth)
	}
	if got := o.verifyWidth(); got != DefaultVerifyWidth {
		t.Errorf("zero-value verify width = %d, want DefaultVerifyWidth (%d)", got, DefaultVerifyWidth)
	}
}

// TestNonzeroInitStateFeasible is the minimized regression for a bug found
// by the chipfuzz campaign: the initial all-zeros seed test left state
// entries out of the snapshot, so the interpreter seeded them from Init
// while the datapath side read 0, producing a contradictory constraint
// (pipeline(0) == spec(Init)) that made any program with a nonzero state
// initializer "infeasible" within one counterexample round.
func TestNonzeroInitStateFeasible(t *testing.T) {
	// The reproducers live in testdata/ as chipfuzz shrank them.
	cases := []struct {
		file string
		kind alu.Kind
	}{
		{"nonzero_init_identity.domino", alu.Counter},
		{"nonzero_init_counter.domino", alu.Counter},
		{"nonzero_init_guarded.domino", alu.IfElseRaw},
	}
	for _, tc := range cases {
		raw, err := os.ReadFile(filepath.Join("testdata", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		res := synth(t, src, grid(1, 1, tc.kind, 4), Options{Seed: 1})
		if !res.Feasible {
			t.Fatalf("%s: infeasible, but Init must not affect the transfer function", tc.file)
		}
		// The synthesized config must implement the transfer function for
		// arbitrary state inputs, not just the initializer.
		for s0 := uint64(0); s0 < 8; s0++ {
			in := interp.MustNew(word.Width(10))
			prog := parser.MustParse("t", src)
			snap := interp.NewSnapshot()
			snap.State["s"] = s0
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			_, state := res.TargetConfig.Exec(nil, map[string]uint64{"s": s0})
			if state["s"] != want.State["s"] {
				t.Fatalf("%q: config(s=%d) = %d, interpreter says %d", src, s0, state["s"], want.State["s"])
			}
		}
	}
}
