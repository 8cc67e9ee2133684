package obs

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"
)

func TestSpanNestingRecords(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "compile", String("program", "sampling"))
	ctx2, child := StartSpan(ctx1, "attempt", Int("stages", 1))
	_, grand := StartSpan(ctx2, "synth")
	grand.End(Int64("conflicts", 7))
	child.End(String("outcome", "feasible"))
	root.End()

	recs := tr.Records()
	if len(recs) != 6 {
		t.Fatalf("got %d records, want 6", len(recs))
	}
	if err := CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
	// Parent linkage follows the context chain.
	if recs[0].Parent != 0 || recs[1].Parent != recs[0].ID || recs[2].Parent != recs[1].ID {
		t.Fatalf("bad parent chain: %+v", recs[:3])
	}
	if recs[0].Attrs["program"] != "sampling" {
		t.Fatalf("start attrs lost: %+v", recs[0].Attrs)
	}
	if recs[3].Attrs["conflicts"] != int64(7) {
		t.Fatalf("end attrs lost: %+v", recs[3].Attrs)
	}
}

// TestNoteUnderCurrentSpan: a note takes the next id in the span
// sequence, hangs under the context's current span, has no end, and
// leaves the compile rollup unchanged.
func TestNoteUnderCurrentSpan(t *testing.T) {
	tr := NewTracer()
	ctx, compile := StartSpan(ContextWithTracer(context.Background(), tr), "compile")
	solveCtx, solve := StartSpan(ctx, "sat.solve")
	Note(solveCtx, "sat.progress", String("phase", "synth"), Int64("conflicts", 5000))
	solve.End(Int64("conflicts", 6000))
	compile.End()

	recs := tr.Records()
	if err := CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
	note := recs[2]
	if note.Type != RecordNote || note.Name != "sat.progress" || note.ID != 3 || note.Parent != recs[1].ID {
		t.Fatalf("note record = %+v, want id 3 under sat.solve %d", note, recs[1].ID)
	}
	if note.Attrs["phase"] != "synth" || note.Attrs["conflicts"] != int64(5000) {
		t.Fatalf("note attrs = %v", note.Attrs)
	}
	withNote, err := RollupCompile(recs)
	if err != nil {
		t.Fatal(err)
	}
	without, err := RollupCompile(append(recs[:2:2], recs[3:]...))
	if err != nil {
		t.Fatal(err)
	}
	if withNote != without {
		t.Fatalf("rollup changed by a note:\n%+v\n%+v", withNote, without)
	}
}

func TestStartSpanWithoutTracerIsNoop(t *testing.T) {
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "compile")
	if span != nil {
		t.Fatal("expected nil span without tracer")
	}
	if ctx2 != ctx {
		t.Fatal("context should pass through unchanged")
	}
	// All nil receivers must be safe.
	span.End(Int("x", 1))
	var tr *Tracer
	var buf bytes.Buffer
	Note(ctx, "sat.progress")
	if tr.Records() != nil || tr.Summary() != "" || tr.WriteJSONL(&buf) != nil || buf.Len() != 0 {
		t.Fatal("nil tracer should be inert")
	}
}

func TestSpanEndTwice(t *testing.T) {
	tr := NewTracer()
	s := tr.StartRoot("x")
	s.End()
	s.End()
	if n := len(tr.Records()); n != 2 {
		t.Fatalf("double End emitted %d records, want 2", n)
	}
}

func TestSummaryTree(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	ctx1, root := StartSpan(ctx, "compile", String("program", "rcp"))
	_, child := StartSpan(ctx1, "attempt", Int("stages", 2))
	child.End()
	root.End()

	sum := tr.Summary()
	lines := strings.Split(strings.TrimRight(sum, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("summary has %d lines:\n%s", len(lines), sum)
	}
	if !strings.HasPrefix(lines[0], "compile program=rcp") {
		t.Fatalf("root line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "  attempt stages=2") {
		t.Fatalf("child line = %q", lines[1])
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, s := StartSpan(ctx, "worker", Int("i", i))
			_, inner := StartSpan(c, "inner")
			inner.End()
			s.End()
		}(i)
	}
	wg.Wait()
	recs := tr.Records()
	if len(recs) != 64 {
		t.Fatalf("got %d records, want 64", len(recs))
	}
	if err := CheckWellFormed(recs); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsFromAbsent(t *testing.T) {
	r := MetricsFrom(context.Background())
	if r != nil {
		t.Fatal("expected nil registry")
	}
	// The whole nil chain must be inert.
	r.Counter("x").Add(1)
	r.Gauge("y").SetMax(2)
	r.Histogram("z").Observe(3)
	if r.Counter("x").Value() != 0 || r.Snapshot() != nil || r.String() != "" {
		t.Fatal("nil registry should be inert")
	}
}
