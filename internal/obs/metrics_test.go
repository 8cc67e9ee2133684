package obs

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	r.Counter("sat.conflicts").Add(3)
	r.Counter("sat.conflicts").Add(4)
	if got := r.Counter("sat.conflicts").Value(); got != 7 {
		t.Fatalf("counter = %d", got)
	}
	g := r.Gauge("cnf.vars")
	g.Set(10)
	g.SetMax(5) // lower: no change
	g.SetMax(42)
	if got := g.Value(); got != 42 {
		t.Fatalf("gauge = %d", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewRegistry().Histogram("cegis.cex_bits")
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 8 || s.Min != 0 || s.Max != 8 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Sum != 25 {
		t.Fatalf("sum = %d", s.Sum)
	}
	want := map[string]int64{"0": 2, "1": 1, "2-3": 2, "4-7": 2, "8-15": 1}
	for k, n := range want {
		if s.Buckets[k] != n {
			t.Fatalf("bucket %q = %d, want %d (all: %v)", k, s.Buckets[k], n, s.Buckets)
		}
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const workers, each = 32, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Counter("sat.conflicts").Add(1)
				r.Gauge("cnf.vars").SetMax(int64(w*each + i))
				r.Histogram("cex").Observe(int64(i))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("sat.conflicts").Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Gauge("cnf.vars").Value(); got != (workers-1)*each+each-1 {
		t.Fatalf("gauge max = %d", got)
	}
	if got := r.Histogram("cex").Snapshot().Count; got != workers*each {
		t.Fatalf("histogram count = %d", got)
	}
}

func TestSnapshotIsJSONMarshalable(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Gauge("b").Set(2)
	r.Histogram("c").Observe(3)
	data, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"a":1`, `"b":2`, `"Count":1`} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("snapshot JSON missing %q: %s", want, data)
		}
	}
}

func TestRegistryString(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(1)
	r.Counter("a.first").Add(2)
	r.Histogram("m.hist").Observe(4)
	s := r.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "a.first") || !strings.HasPrefix(lines[2], "z.last") {
		t.Fatalf("String() not sorted:\n%s", s)
	}
	if !strings.Contains(s, "count=1") {
		t.Fatalf("histogram line missing: %s", s)
	}
}

// TestRegistryStringAligned: every value column starts at the same
// offset, also when a name is longer than the old fixed 28-column pad.
func TestRegistryStringAligned(t *testing.T) {
	r := NewRegistry()
	r.Counter("sat.conflicts").Add(12)
	r.Gauge("sketch.hole_bits.stateful_cmp_const").Set(8)
	r.Gauge("x").Set(123456)
	r.Histogram("verify.cex_bits").Observe(3)
	lines := strings.Split(strings.TrimSuffix(r.String(), "\n"), "\n")
	col := -1
	for _, line := range lines {
		name, _, _ := strings.Cut(line, " ")
		at := len(name) + len(line[len(name):]) - len(strings.TrimLeft(line[len(name):], " "))
		if col == -1 {
			col = at
		}
		if at != col {
			t.Fatalf("value of %q starts at column %d, want %d:\n%s", name, at, col, r)
		}
	}
	if want := len("sketch.hole_bits.stateful_cmp_const") + 1; col != want {
		t.Fatalf("values start at column %d, want %d:\n%s", col, want, r)
	}
}

// A span on a context with a registry and no tracer exists and folds its
// end into the registry: counters add, max-gauges keep the peak,
// last-value gauges the latest end, the histogram observes only a present
// cex_bits, a span the fold does not name (compile) updates nothing, and
// the explain outcome selects which explain.* counter moves.
func TestSpanEndFoldsIntoRegistry(t *testing.T) {
	r := NewRegistry()
	ctx := ContextWithMetrics(context.Background(), r)
	end := func(name string, attrs ...Attr) {
		_, s := StartSpan(ctx, name)
		if s == nil {
			t.Fatalf("%s: no span on a context with a registry", name)
		}
		s.End(attrs...)
	}
	end("sat.solve", Int64("conflicts", 5), Int("cnf_vars", 40), Int("clauses", 90))
	end("sat.solve", Int64("conflicts", 2), Int("cnf_vars", 10))
	end("cegis.sketch", Int("holes", 3), Int("hole_bits", 12), Int("hole_bits.slot_op", 12))
	end("cegis.sketch", Int("holes", 2), Int("hole_bits", 7), Int("hole_bits.slot_op", 7))
	end("verify", Int("gates", 8))
	end("verify", Int("gates", 6), Int("cex_bits", 4))
	end("explain", String("outcome", "infeasible"), Bool("minimal", true), Int("blamed_groups", 2))
	end("explain", String("outcome", "timeout"), Bool("minimal", true), Int("blamed_groups", 1))
	end("explain", String("outcome", "error"))
	end("compile", Int64("conflicts", 99))

	want := map[string]any{
		"sat.solves": int64(2), "sat.conflicts": int64(7), "cnf.vars": int64(40), "cnf.clauses": int64(90),
		"sketch.holes": int64(2), "sketch.hole_bits": int64(7), "sketch.hole_bits.slot_op": int64(7),
		"circuit.gates": int64(8),
		"explain.runs":  int64(3), "explain.minimal_cores": int64(1), "explain.timeouts": int64(1),
		"explain.errors": int64(1), "explain.blamed_groups": int64(3),
	}
	snap := r.Snapshot()
	for name, v := range want {
		if snap[name] != v {
			t.Errorf("%s = %v, want %v", name, snap[name], v)
		}
	}
	if h := r.Histogram("cegis.cex_bits").Snapshot(); h.Count != 1 || h.Sum != 4 {
		t.Errorf("cegis.cex_bits = %+v, want one observation of 4", h)
	}
}
