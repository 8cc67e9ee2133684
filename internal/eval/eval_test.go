package eval

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// runSubset performs a small but real evaluation (2 programs x 3 mutants).
func runSubset(t *testing.T) []MutantOutcome {
	t.Helper()
	outcomes, err := Run(context.Background(), Options{
		Mutants:  3,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Programs: []string{"sampling", "stateful_fw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return outcomes
}

func TestRunProducesAllOutcomes(t *testing.T) {
	outcomes := runSubset(t)
	if len(outcomes) != 6 {
		t.Fatalf("got %d outcomes, want 6", len(outcomes))
	}
	for _, o := range outcomes {
		if o.Program == "" || len(o.Ops) == 0 {
			t.Fatalf("incomplete outcome: %+v", o)
		}
		// Chipmunk must compile every semantics-preserving mutant of these
		// small programs (the Table 2 headline).
		if !o.ChipmunkOK {
			t.Errorf("%s mutant %d: Chipmunk failed (timeout=%v)", o.Program, o.Index, o.ChipmunkTimeout)
		}
		if o.ChipmunkOK && o.ChipmunkUsage.Stages == 0 {
			t.Errorf("%s mutant %d: missing usage", o.Program, o.Index)
		}
	}
}

func TestTable2Aggregation(t *testing.T) {
	outcomes := runSubset(t)
	rows := Table2(outcomes)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Mutants != 3 {
			t.Errorf("%s: %d mutants", r.Program, r.Mutants)
		}
		if r.ChipmunkRate != 1.0 {
			t.Errorf("%s: Chipmunk rate %.2f, want 1.0", r.Program, r.ChipmunkRate)
		}
		if r.DominoRate < 0 || r.DominoRate > 1 {
			t.Errorf("%s: Domino rate %.2f out of range", r.Program, r.DominoRate)
		}
		if r.ChipmunkMeanTime <= 0 || r.ChipmunkMaxTime < r.ChipmunkMeanTime {
			t.Errorf("%s: times mean=%v max=%v", r.Program, r.ChipmunkMeanTime, r.ChipmunkMaxTime)
		}
	}
	rendered := RenderTable2(rows)
	for _, want := range []string{"sampling", "stateful_fw", "Chipmunk", "Domino"} {
		if !strings.Contains(rendered, want) {
			t.Errorf("render missing %q:\n%s", want, rendered)
		}
	}
}

func TestFigure5Aggregation(t *testing.T) {
	outcomes := runSubset(t)
	rows := Figure5(outcomes)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Both > 3 {
			t.Errorf("%s: both=%d > mutants", r.Program, r.Both)
		}
		if r.Both > 0 {
			// Figure 5's headline: Chipmunk has no variance and uses no
			// more stages than Domino.
			if r.ChipmunkStages.Variance() != 0 {
				t.Errorf("%s: Chipmunk stage variance %d", r.Program, r.ChipmunkStages.Variance())
			}
			if r.ChipmunkStages.Mean > r.DominoStages.Mean {
				t.Errorf("%s: Chipmunk deeper than Domino (%v vs %v)",
					r.Program, r.ChipmunkStages.Mean, r.DominoStages.Mean)
			}
		}
	}
	rendered := RenderFigure5(rows)
	if !strings.Contains(rendered, "Pipeline stages") || !strings.Contains(rendered, "Max ALUs") {
		t.Errorf("render incomplete:\n%s", rendered)
	}
}

func TestCSVWellFormed(t *testing.T) {
	outcomes := runSubset(t)
	csv := CSV(outcomes)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 1+len(outcomes) {
		t.Fatalf("%d CSV lines for %d outcomes", len(lines), len(outcomes))
	}
	header := strings.Split(lines[0], ",")
	for _, line := range lines[1:] {
		// The reason column is quoted and may contain commas; count a
		// minimum instead of an exact match.
		if got := len(strings.Split(line, ",")); got < len(header) {
			t.Fatalf("CSV row has %d fields, want >= %d: %s", got, len(header), line)
		}
	}
}

// TestCSVHeaderPinned pins the exact CSV header. External plotting scripts
// address columns by these names and positions; any schema change must land
// here deliberately, appending rather than reordering where possible.
func TestCSVHeaderPinned(t *testing.T) {
	const want = "program,mutant,ops,chipmunk_ok,chipmunk_timeout,chipmunk_ms,chipmunk_stages,chipmunk_max_alus,chipmunk_iters,chipmunk_conflicts,chipmunk_decisions,chipmunk_propagations,chipmunk_peak_cnf_vars,chipmunk_infeasible_dim,domino_ok,domino_ms,domino_stages,domino_max_alus,bpf_ran,bpf_ok,bpf_timeout,bpf_ms,bpf_instrs,bpf_iters,bpf_conflicts,bpf_infeasible_dim,domino_reason"
	if CSVHeader != want {
		t.Fatalf("CSV header drifted:\n got %s\nwant %s", CSVHeader, want)
	}
	if got := strings.SplitN(CSV(nil), "\n", 2)[0]; got != want {
		t.Fatalf("CSV() emits a different header than CSVHeader:\n%s", got)
	}
}

// TestCSVInfeasibleDimColumns checks the infeasibility columns: the
// header names them for both targets and a forensics-annotated outcome
// renders its binding dimensions in the right fields.
func TestCSVInfeasibleDimColumns(t *testing.T) {
	csv := CSV([]MutantOutcome{{
		Program:               "marple_reorder",
		ChipmunkInfeasibleDim: "stage-depth",
		BPFRan:                true,
		BPFInfeasibleDim:      "instruction-slots",
	}})
	header := strings.Split(strings.SplitN(csv, "\n", 2)[0], ",")
	for _, col := range []string{"chipmunk_infeasible_dim", "bpf_infeasible_dim"} {
		found := false
		for _, h := range header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("CSV header missing %q", col)
		}
	}
	row := strings.SplitN(csv, "\n", 3)[1]
	if !strings.Contains(row, ",stage-depth,") || !strings.Contains(row, ",instruction-slots,") {
		t.Errorf("CSV row missing dimensions: %s", row)
	}

	// A feasible sweep with the knob on leaves the columns empty.
	outcomes, err := Run(context.Background(), Options{
		Mutants:  1,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Programs: []string{"marple_new_flow"},
		Explain:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.ChipmunkOK {
			t.Fatalf("%s mutant %d should compile", o.Program, o.Index)
		}
		if o.ChipmunkInfeasibleDim != "" {
			t.Errorf("feasible mutant carries infeasibility dimension %q", o.ChipmunkInfeasibleDim)
		}
	}
}

func TestSeriesStats(t *testing.T) {
	s := newSeries([]int{2, 5, 3})
	if s.Mean != 10.0/3 || s.Min != 2 || s.Max != 5 || s.Variance() != 3 {
		t.Fatalf("series = %+v", s)
	}
	empty := newSeries(nil)
	if empty.Mean != 0 || empty.Variance() != 0 {
		t.Fatalf("empty series = %+v", empty)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := &Options{}
	if o.mutants() != 10 || o.timeout() != 120*time.Second || o.parallel() < 1 {
		t.Fatalf("defaults: %d %v %d", o.mutants(), o.timeout(), o.parallel())
	}
}

func TestUnknownProgramRejected(t *testing.T) {
	_, err := Run(context.Background(), Options{Programs: []string{"nope"}})
	if err == nil {
		t.Fatal("unknown program should error")
	}
}

func TestCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	outcomes, err := Run(ctx, Options{Mutants: 2, Programs: []string{"sampling"}})
	if err == nil {
		// All jobs skipped before start is also acceptable if no error —
		// but outcomes should then be empty-ish. Accept either contract.
		for _, o := range outcomes {
			_ = o
		}
	}
}

func TestUsageTypeIsShared(t *testing.T) {
	// Both compilers report the same Usage type so Figure 5 compares
	// like with like.
	var u pisa.Usage
	o := MutantOutcome{ChipmunkUsage: u, DominoUsage: u}
	_ = o
}

// TestTraceDirWriteErrorSurfaces: a trace that cannot be written makes
// Run return an error naming it, while the outcomes are still filled in.
func TestTraceDirWriteErrorSurfaces(t *testing.T) {
	outcomes, err := Run(context.Background(), Options{
		Mutants:  1,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Programs: []string{"sampling"},
		TraceDir: filepath.Join(t.TempDir(), "missing"),
	})
	if err == nil || !strings.Contains(err.Error(), "sampling_m00.jsonl") {
		t.Fatalf("Run err = %v, want the unwritable trace named", err)
	}
	if len(outcomes) != 1 || outcomes[0].Program != "sampling" {
		t.Fatalf("outcomes = %+v", outcomes)
	}
}

// TestEffortMetricsAndTraces runs a small parallel evaluation with a shared
// registry and a trace directory, checking (a) per-mutant effort lands in
// the outcomes and CSV, (b) the shared registry's conflict total equals the
// sum over outcomes (race-safe accumulation), and (c) each mutant writes a
// well-formed JSONL trace.
func TestEffortMetricsAndTraces(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	outcomes, err := Run(context.Background(), Options{
		Mutants:  3,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Parallel: 4,
		Programs: []string{"sampling", "stateful_fw"},
		Metrics:  reg,
		TraceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}

	var conflicts, decisions int64
	for _, o := range outcomes {
		if o.ChipmunkOK && o.ChipmunkEffort.Iters == 0 {
			t.Errorf("%s mutant %d: compiled with zero CEGIS iterations", o.Program, o.Index)
		}
		conflicts += o.ChipmunkEffort.Conflicts
		decisions += o.ChipmunkEffort.Decisions
	}
	if got := reg.Counter("sat.conflicts").Value(); got != conflicts {
		t.Errorf("registry sat.conflicts = %d, outcomes sum to %d", got, conflicts)
	}
	if got := reg.Counter("sat.decisions").Value(); got != decisions {
		t.Errorf("registry sat.decisions = %d, outcomes sum to %d", got, decisions)
	}
	if got := reg.Counter("core.attempts").Value(); got < int64(len(outcomes)) {
		t.Errorf("core.attempts = %d, want >= %d", got, len(outcomes))
	}

	for _, o := range outcomes {
		path := filepath.Join(dir, fmt.Sprintf("%s_m%02d.jsonl", o.Program, o.Index))
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("missing trace: %v", err)
		}
		recs, err := obs.ReadRecords(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if err := obs.CheckWellFormed(recs); err != nil {
			t.Errorf("%s: %v", path, err)
		}
		if len(recs) == 0 || recs[0].Name != "compile" {
			t.Errorf("%s: trace should open with a compile span", path)
		}
	}

	csv := CSV(outcomes)
	header := strings.Split(strings.SplitN(csv, "\n", 2)[0], ",")
	for _, col := range []string{"chipmunk_iters", "chipmunk_conflicts",
		"chipmunk_decisions", "chipmunk_propagations", "chipmunk_peak_cnf_vars"} {
		found := false
		for _, h := range header {
			if h == col {
				found = true
			}
		}
		if !found {
			t.Errorf("CSV header missing %q", col)
		}
	}

	footer := RenderTable2(Table2(outcomes))
	if !strings.Contains(footer, "solver effort:") || !strings.Contains(footer, "SAT conflicts") {
		t.Errorf("Table 2 render missing effort footer:\n%s", footer)
	}
}

// TestRunWithBPFTarget exercises the per-target column: with Options.BPF
// set, mutants of a budgeted program carry register-machine outcomes, the
// Table 2 render grows the BPF columns, and the CSV rows record them.
func TestRunWithBPFTarget(t *testing.T) {
	outcomes, err := Run(context.Background(), Options{
		Mutants:  2,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Programs: []string{"marple_new_flow"},
		BPF:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outcomes {
		if !o.BPFRan {
			t.Errorf("%s mutant %d: BPF target not attempted", o.Program, o.Index)
		}
		if !o.BPFOK {
			t.Errorf("%s mutant %d: BPF infeasible at the hand-worked budget (timeout=%v)",
				o.Program, o.Index, o.BPFTimeout)
		}
		if o.BPFOK && (o.BPFInstrs < 1 || o.BPFEffort.Iters == 0) {
			t.Errorf("%s mutant %d: BPF outcome missing instrs/effort: %+v", o.Program, o.Index, o)
		}
	}
	rendered := RenderTable2(Table2(outcomes))
	if !strings.Contains(rendered, "BPF mean(s)") {
		t.Errorf("render missing BPF columns:\n%s", rendered)
	}
	if !strings.Contains(CSV(outcomes), "bpf_ok") {
		t.Error("CSV missing bpf columns")
	}

	// Without the flag the render must keep its pre-BPF shape.
	plain := RenderTable2(Table2([]MutantOutcome{{Program: "sampling", ChipmunkOK: true}}))
	if strings.Contains(plain, "BPF") {
		t.Errorf("BPF columns leaked into a non-BPF render:\n%s", plain)
	}
}

// TestPerProgramMutationSeedsDistinct guards the seed-derivation fix: the
// old len(name)*7919 offset collided for same-length program names
// (blue_increase / blue_decrease), giving them structurally parallel
// mutant sets. The FNV-based derivation must separate every corpus pair.
func TestPerProgramMutationSeedsDistinct(t *testing.T) {
	names := programs.Names()
	seen := map[int64]string{}
	for _, n := range names {
		s := programSeed(n)
		if s < 0 {
			t.Errorf("programSeed(%q) = %d, want non-negative", n, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("programSeed collision: %q and %q both map to %d", prev, n, s)
		}
		seen[s] = n
	}
	if programSeed("blue_increase") == programSeed("blue_decrease") {
		t.Error("the regression pair still collides")
	}
}

// TestRunWithCacheWarmSweep: a second evaluation sweep over the same
// corpus slice with a shared solution cache must serve every compilation
// from the cache.
func TestRunWithCacheWarmSweep(t *testing.T) {
	cache := solcache.New(64)
	opts := Options{
		Mutants:  3,
		Seed:     42,
		Timeout:  2 * time.Minute,
		Programs: []string{"sampling"},
		Cache:    cache,
	}
	cold, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 0 && st.Size == 0 {
		t.Fatalf("cold sweep stats: %+v", st)
	}
	warm, err := Run(context.Background(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(cold) {
		t.Fatalf("sweep sizes differ: %d vs %d", len(warm), len(cold))
	}
	st := cache.Stats()
	if st.Hits < int64(len(warm)) {
		t.Errorf("warm sweep: %d cache hits, want >= %d (every Chipmunk compile)", st.Hits, len(warm))
	}
	for i := range warm {
		if !warm[i].ChipmunkOK {
			t.Errorf("warm mutant %d failed", i)
		}
	}
}
