package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/programs"
	"repro/internal/word"
)

func benchOptions(b programs.Benchmark) Options {
	return Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         7,
	}
}

// TestCorpusCompiles is the repository's flagship integration test: every
// benchmark program of Table 2 must synthesize, and the synthesized
// configuration must behave exactly like the program when simulated.
func TestCorpusCompiles(t *testing.T) {
	for _, b := range programs.Corpus() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			rep, err := Compile(ctx, b.Parse(), benchOptions(b))
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Feasible {
				t.Fatalf("%s did not compile (timedout=%v depths=%+v)", b.Name, rep.TimedOut, rep.Depths)
			}
			if rep.Usage.Stages == 0 {
				t.Fatal("usage should report at least one stage")
			}
			if rep.Config.Grid.Stages > b.MaxStages {
				t.Fatalf("grid exceeds MaxStages: %d", rep.Config.Grid.Stages)
			}
		})
	}
}

// TestIterativeDeepeningFindsMinimum: marple_reorder is infeasible at one
// stage (the reordered flag needs the old max exported first), so the depth
// search must probe 1 then settle at 2.
func TestIterativeDeepeningFindsMinimum(t *testing.T) {
	b, err := programs.ByName("marple_reorder")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Compile(context.Background(), b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Depths) != 2 {
		t.Fatalf("expected probes at 1 and 2 stages, got %+v", rep.Depths)
	}
	if rep.Depths[0].Feasible || !rep.Depths[1].Feasible {
		t.Fatalf("expected infeasible@1, feasible@2: %+v", rep.Depths)
	}
	if rep.Config.Grid.Stages != 2 {
		t.Fatalf("final grid has %d stages, want 2", rep.Config.Grid.Stages)
	}
}

func TestFixedStagesSkipsDeepening(t *testing.T) {
	b, _ := programs.ByName("sampling")
	opts := benchOptions(b)
	opts.FixedStages = true
	opts.MaxStages = 2
	rep, err := Compile(context.Background(), b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("sampling should compile at fixed 2 stages")
	}
	if len(rep.Depths) != 1 || rep.Depths[0].Stages != 2 {
		t.Fatalf("fixed-stages should probe only depth 2: %+v", rep.Depths)
	}
}

func TestCompileTimeout(t *testing.T) {
	b, _ := programs.ByName("flowlet")
	ctx, cancel := context.WithTimeout(context.Background(), 1*time.Millisecond)
	defer cancel()
	rep, err := Compile(ctx, b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TimedOut && !rep.Feasible {
		t.Fatal("near-zero budget must end in TimedOut (or a very fast success)")
	}
}

func TestInfeasibleProgramReported(t *testing.T) {
	prog := parser.MustParse("hard", "pkt.a = pkt.a * pkt.b;")
	rep, err := Compile(context.Background(), prog, Options{
		Width:        2,
		MaxStages:    2,
		StatefulALU:  alu.Stateful{Kind: alu.Counter},
		StatelessALU: alu.Stateless{},
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Feasible || rep.TimedOut {
		t.Fatalf("field multiply should be infeasible: %+v", rep)
	}
	if len(rep.Depths) != 2 {
		t.Fatalf("should have probed both depths: %+v", rep.Depths)
	}
}

// TestSynthesizedSamplingBehaviour drives the compiled sampling config over
// a packet stream — the paper's Figure 2 scenario end to end.
func TestSynthesizedSamplingBehaviour(t *testing.T) {
	b, _ := programs.ByName("sampling")
	rep, err := Compile(context.Background(), b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("sampling must compile")
	}
	state := map[string]uint64{"count": 0}
	var sampledAt []int
	for i := 1; i <= 44; i++ {
		var pkt map[string]uint64
		pkt, state = rep.Config.Exec(map[string]uint64{"sample": 0}, state)
		if pkt["sample"] == 1 {
			sampledAt = append(sampledAt, i)
		}
	}
	want := []int{11, 22, 33, 44}
	if len(sampledAt) != len(want) {
		t.Fatalf("sampled at %v, want %v", sampledAt, want)
	}
	for i := range want {
		if sampledAt[i] != want[i] {
			t.Fatalf("sampled at %v, want %v", sampledAt, want)
		}
	}
}

// TestFlowletEndToEnd checks the flowlet config: bursts stick to a path,
// gaps allow rerouting.
func TestFlowletEndToEnd(t *testing.T) {
	b, _ := programs.ByName("flowlet")
	rep, err := Compile(context.Background(), b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("flowlet must compile")
	}
	state := map[string]uint64{"last_time": 0, "saved_hop": 0}
	send := func(arrival, newHop uint64) uint64 {
		pkt, st := rep.Config.Exec(map[string]uint64{
			"arrival": arrival, "new_hop": newHop, "next_hop": 0,
		}, state)
		state = st
		return pkt["next_hop"]
	}
	if got := send(10, 3); got != 3 {
		t.Fatalf("first packet after long gap should take new hop 3, got %d", got)
	}
	if got := send(12, 7); got != 3 {
		t.Fatalf("burst packet should stick to hop 3, got %d", got)
	}
	if got := send(30, 7); got != 7 {
		t.Fatalf("post-gap packet should take new hop 7, got %d", got)
	}
}

// TestCompiledConfigMatchesInterpreterExhaustively compares a compiled
// config against the interpreter over the full input space at width 5.
func TestCompiledConfigMatchesInterpreterExhaustively(t *testing.T) {
	b, _ := programs.ByName("stateful_fw")
	prog := b.Parse()
	rep, err := Compile(context.Background(), prog, benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatal("firewall must compile")
	}
	const w = word.Width(5)
	cfg := *rep.Config
	cfg.Grid.WordWidth = w
	in := interp.MustNew(w)
	for dir := uint64(0); dir < w.Size(); dir++ {
		for allow := uint64(0); allow < w.Size(); allow++ {
			for est := uint64(0); est < w.Size(); est++ {
				snap := interp.NewSnapshot()
				snap.Pkt["dir"], snap.Pkt["allow"] = dir, allow
				snap.State["established"] = est
				want, err := in.Run(prog, snap)
				if err != nil {
					t.Fatal(err)
				}
				gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
				if gotPkt["allow"] != want.Pkt["allow"] ||
					gotState["established"] != want.State["established"] {
					t.Fatalf("input dir=%d allow=%d est=%d: got (%d,%d) want (%d,%d)",
						dir, allow, est,
						gotPkt["allow"], gotState["established"],
						want.Pkt["allow"], want.State["established"])
				}
			}
		}
	}
}

// TestTraceForwarded: the context's tracer reaches the CEGIS loop, so
// the compile's trace holds its cegis.iter spans.
func TestTraceForwarded(t *testing.T) {
	b, _ := programs.ByName("sampling")
	tr := obs.NewTracer()
	rep, err := Compile(obs.ContextWithTracer(context.Background(), tr), b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	iters := 0
	for _, r := range tr.Records() {
		if r.Type == obs.RecordStart && r.Name == "cegis.iter" {
			iters++
		}
	}
	if want := rep.Effort().Iters; iters == 0 || iters != want {
		t.Fatalf("tracer holds %d cegis.iter spans, want %d (one per iteration)", iters, want)
	}
}

// TestStateDependencyOrdering exercises the paper's §3.1 "important
// wrinkle": when an update to state s2 depends on s1, s1 must be allocated
// to an earlier stage so its exported value can travel through a PHV
// container to s2's ALU. The synthesizer must prove one stage infeasible
// and discover the routing at two stages.
func TestStateDependencyOrdering(t *testing.T) {
	src := "s2 = s1; s1 = s1 + 1;"
	prog := parser.MustParse("dep", src)
	rep, err := Compile(context.Background(), prog, Options{
		Width:        2,
		MaxStages:    3,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: alu.PredRaw},
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("cross-state dependency should fit two stages: %+v", rep.Depths)
	}
	if rep.Depths[0].Feasible {
		t.Fatal("one stage cannot order the dependency; depth 1 must be infeasible")
	}
	if rep.Config.Grid.Stages != 2 {
		t.Fatalf("expected 2 stages, got %d", rep.Config.Grid.Stages)
	}
	// Drive the chain: s2 must always lag one packet behind s1's count.
	state := map[string]uint64{"s1": 0, "s2": 0}
	for i := uint64(0); i < 6; i++ {
		if state["s1"] != i || (i > 0 && state["s2"] != i-1) {
			t.Fatalf("packet %d: s1=%d s2=%d", i, state["s1"], state["s2"])
		}
		_, state = rep.Config.Exec(map[string]uint64{}, state)
	}
}

// TestCompileSpansAndEffort compiles a two-stage program with a tracer and
// registry installed and checks (a) the span tree is well-formed with the
// expected compile → attempt → cegis.iter nesting, (b) the attempt count
// matches the deepening probes, and (c) Report.Effort sums the per-depth
// solver counters and agrees with the registry's totals.
func TestCompileSpansAndEffort(t *testing.T) {
	prog := parser.MustParse("dep", "s2 = s1; s1 = s1 + 1;")
	tr := obs.NewTracer()
	reg := obs.NewRegistry()
	ctx := obs.ContextWithMetrics(obs.ContextWithTracer(context.Background(), tr), reg)
	rep, err := Compile(ctx, prog, Options{
		Width:        2,
		MaxStages:    3,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: alu.PredRaw},
		Seed:         5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Feasible {
		t.Fatalf("expected feasible: %+v", rep.Depths)
	}

	recs := tr.Records()
	if err := obs.CheckWellFormed(recs); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	count := map[string]int{}
	parents := map[int64]string{}
	for _, r := range recs {
		if r.Type != obs.RecordStart {
			continue
		}
		count[r.Name]++
		parents[r.ID] = r.Name
	}
	if count["compile"] != 1 {
		t.Fatalf("compile spans = %d, want 1", count["compile"])
	}
	if count["attempt"] != len(rep.Depths) {
		t.Fatalf("attempt spans = %d, want %d", count["attempt"], len(rep.Depths))
	}
	if count["cegis.iter"] == 0 || count["sat.solve"] == 0 {
		t.Fatalf("missing inner spans: %v", count)
	}
	// Every attempt span must nest directly under the compile span.
	for _, r := range recs {
		if r.Type == obs.RecordStart && r.Name == "attempt" && parents[r.Parent] != "compile" {
			t.Fatalf("attempt span parented under %q", parents[r.Parent])
		}
	}

	eff := rep.Effort()
	var iters int
	var conflicts, decisions, propagations int64
	peak := 0
	for _, d := range rep.Depths {
		iters += d.Iters
		conflicts += d.SynthConflicts + d.VerifyConflicts
		decisions += d.Decisions
		propagations += d.Propagations
		if d.PeakCNFVars > peak {
			peak = d.PeakCNFVars
		}
	}
	if eff.Iters != iters || eff.Conflicts != conflicts ||
		eff.Decisions != decisions || eff.Propagations != propagations ||
		eff.PeakCNFVars != peak {
		t.Fatalf("Effort %+v disagrees with per-depth sums", eff)
	}
	if eff.Conflicts == 0 || eff.Decisions == 0 {
		t.Fatal("two-stage synthesis should record solver effort")
	}

	if got := reg.Counter("core.attempts").Value(); got != int64(len(rep.Depths)) {
		t.Fatalf("core.attempts = %d, want %d", got, len(rep.Depths))
	}
	if got := reg.Counter("sat.conflicts").Value(); got != eff.Conflicts {
		t.Fatalf("registry sat.conflicts = %d, Effort says %d", got, eff.Conflicts)
	}
	if got := reg.Counter("sat.decisions").Value(); got != eff.Decisions {
		t.Fatalf("registry sat.decisions = %d, Effort says %d", got, eff.Decisions)
	}
	if got := int(reg.Gauge("cnf.vars").Value()); got != eff.PeakCNFVars {
		t.Fatalf("registry cnf.vars = %d, Effort says %d", got, eff.PeakCNFVars)
	}
}
