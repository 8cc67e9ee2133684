package bench

import (
	"context"
	"math"
	"testing"

	"repro/internal/obs"
	"repro/internal/programs"
)

// span builds the start and end records of one span.
func span(id, parent int64, name string, start, end int64) []obs.Record {
	return []obs.Record{
		{Type: obs.RecordStart, ID: id, Parent: parent, Name: name, TimeNS: start},
		{Type: obs.RecordEnd, ID: id, TimeNS: end},
	}
}

func records(spans ...[]obs.Record) []obs.Record {
	var out []obs.Record
	for _, s := range spans {
		out = append(out, s...)
	}
	return out
}

// TestProfileLayersSplit: on a hand-built compile, the profile's phase
// times split into encoding and SAT by enclosing phase (a solve under
// explain belongs to neither), explain time leaves the time outside CEGIS,
// and the layers sum to the compile's wall time. A cache hit's time
// outside lookup is the compile's own.
func TestProfileLayersSplit(t *testing.T) {
	ns := func(v int64) float64 { return float64(v) / 1e6 }
	hit := records(
		span(1, 0, "compile", 0, 100),
		span(2, 1, "solcache.lookup", 0, 40),
	)
	hit[1].Attrs = map[string]any{"cached": true} // the compile span's end
	for _, c := range []struct {
		name string
		recs []obs.Record
		want layerTimes
	}{{
		name: "miss",
		recs: records(
			span(1, 0, "bench.op", 0, 1000),
			span(2, 1, "bench.parse", 0, 50),
			span(3, 1, "compile", 100, 1000),
			span(4, 3, "solcache.lookup", 100, 120),
			span(5, 3, "attempt", 150, 900),
			span(6, 5, "cegis.iter", 200, 800),
			span(7, 6, "synth", 200, 500),
			span(8, 7, "sat.solve", 250, 450),
			span(9, 6, "verify", 500, 700),
			span(10, 9, "sat.solve", 550, 650),
			span(11, 3, "explain", 900, 980),
			span(12, 11, "sat.solve", 920, 950),
		),
		want: layerTimes{
			Wall: ns(900),
			// compile, attempt and iteration self time: 50 + 150 + 100.
			AttemptSelf: ns(300),
			SynthSelf:   ns(300 - 200),
			VerifySelf:  ns(200 - 100),
			SolveSynth:  ns(200),
			SolveVerify: ns(100),
			Lookup:      ns(20),
			Explain:     ns(80),
		},
	}, {
		name: "hit",
		recs: hit,
		want: layerTimes{Wall: ns(100), CompileSelf: ns(60), Lookup: ns(40)},
	}} {
		p, err := obs.RollupCompile(c.recs)
		if err != nil {
			t.Fatal(err)
		}
		got := profileLayers(p, explainMS(c.recs))
		if !layersNear(got, c.want) {
			t.Errorf("%s: layers = %+v\nwant       %+v", c.name, got, c.want)
		}
		if math.Abs(got.selfSum()-got.Wall) > 1e-9 {
			t.Errorf("%s: layers sum to %v, compile wall is %v", c.name, got.selfSum(), got.Wall)
		}
	}
}

// layersNear compares layer times up to float rounding.
func layersNear(a, b layerTimes) bool {
	av := []float64{a.Wall, a.AttemptSelf, a.CompileSelf, a.SynthSelf, a.VerifySelf, a.SolveSynth, a.SolveVerify, a.Lookup, a.Explain}
	bv := []float64{b.Wall, b.AttemptSelf, b.CompileSelf, b.SynthSelf, b.VerifySelf, b.SolveSynth, b.SolveVerify, b.Lookup, b.Explain}
	for i := range av {
		if math.Abs(av[i]-bv[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestRollupMatchesRealCompile: on a real traced compile of a table2
// mutant, the per-layer times sum to the compile span's wall time
// within 5%, and that wall time lies within the measured operation.
func TestRollupMatchesRealCompile(t *testing.T) {
	b, err := programs.ByName("rcp")
	if err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	pr := newProber(1)
	cp := corpus(pr, tl, 1, 1)[0]
	if cp.bench.Name != b.Name || len(cp.srcs) != 1 {
		t.Fatalf("corpus()[0] = %s with %d mutants", cp.bench.Name, len(cp.srcs))
	}
	tr := &tracing{}
	_, rep, d, err := compileOp(context.Background(), pr, tr, b.Name, cp.names[0], cp.srcs[0], cp.opts)
	if err == nil {
		err = checkPinned(b.Name, rep)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.CheckWellFormed(tr.sink.recs); err != nil {
		t.Fatal(err)
	}
	lt := tr.layers[b.Name]
	if lt.Wall <= 0 {
		t.Fatalf("no compile time rolled up: %+v", lt)
	}
	if rel := math.Abs(lt.selfSum()-lt.Wall) / lt.Wall; rel > 0.05 {
		t.Fatalf("layers sum to %.3f ms, compile span is %.3f ms (%.1f%% off)", lt.selfSum(), lt.Wall, rel*100)
	}
	if lt.Wall > ms(d) {
		t.Fatalf("compile span %.3f ms outlasts the measured operation %.3f ms", lt.Wall, ms(d))
	}
	if lt.SolveSynth <= 0 || lt.SolveVerify <= 0 || lt.AttemptSelf <= 0 {
		t.Fatalf("a CEGIS compile should show synthesis, verification and attempt time: %+v", lt)
	}
}

// TestTraceSinkRenumbers: records of separate tracers merge into one
// well-formed stream with distinct ids.
func TestTraceSinkRenumbers(t *testing.T) {
	var sink traceSink
	for i := 0; i < 3; i++ {
		tr := obs.NewTracer()
		ctx, root := obs.StartSpan(obs.ContextWithTracer(context.Background(), tr), "bench.op")
		_, child := obs.StartSpan(ctx, "compile")
		child.End()
		root.End()
		sink.add(tr.Records())
	}
	if err := obs.CheckWellFormed(sink.recs); err != nil {
		t.Fatal(err)
	}
	names := map[int64]string{}
	children := map[int64]int{}
	for _, r := range sink.recs {
		if r.Type == obs.RecordStart {
			names[r.ID] = r.Name
			children[r.Parent]++
		}
	}
	if len(names) != 6 {
		t.Fatalf("%d distinct spans, want 6", len(names))
	}
	for _, r := range sink.recs {
		if r.Type == obs.RecordStart && r.Name == "compile" && (names[r.Parent] != "bench.op" || children[r.Parent] != 1) {
			t.Fatalf("compile span %d is not the only child of a bench.op", r.ID)
		}
	}
}
