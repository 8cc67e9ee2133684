package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/programs"
	"repro/internal/solcache"
)

// effortGoldenPath pins the per-depth search effort of every corpus
// compile, of the solver-bound bpf compiles and of a cache hit. Data-layout
// changes to the SAT solver or the circuit builder (clause storage,
// structural hashing, workspace reuse) must not change a single solver
// decision, so these counters must stay exactly equal. A deliberate search
// change regenerates the file from the table this test prints on mismatch.
const effortGoldenPath = "testdata/search_effort.golden"

// readEffortGolden returns the golden rows keyed by their first column.
func readEffortGolden(t *testing.T) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(effortGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{}
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, _, _ := strings.Cut(line, " ")
		want[key] = append(want[key], line)
	}
	return want
}

// effortCase is one golden-pinned compile. Its rows are keyed by key.
type effortCase struct {
	key  string
	b    programs.Benchmark
	opts Options
	// cached compiles b twice against one solution cache and pins the
	// second compile, which must be a cache hit that searches nothing.
	cached bool
	// slow cases run only without -short.
	slow bool
}

// bpfEffortCases are the bpf compiles of chipbench's solver-bound
// workload: feasible at the hand-worked slot budgets (seed 1) and
// infeasible below them (seed 7).
var bpfEffortCases = []struct {
	program string
	slots   int
	seed    int64
}{
	{"marple_new_flow", 5, 1},
	{"stateful_fw", 6, 1},
	{"marple_new_flow", 3, 7},
	{"stateful_fw", 3, 7},
	{"blue_decrease", 3, 7},
}

// effortCases lists every golden-pinned compile: the corpus at its corpus
// options (seed 7), the bpf cases at corpus options with a fixed slot
// budget, and one sampling cache hit. marple_reorder, the slowest corpus
// row (its infeasibility proof at one stage), and stateful_fw at 6 bpf
// slots are slow.
func effortCases(t *testing.T) []effortCase {
	t.Helper()
	var cases []effortCase
	for _, b := range programs.Corpus() {
		cases = append(cases, effortCase{key: b.Name, b: b, opts: benchOptions(b), slow: b.Name == "marple_reorder"})
	}
	for _, c := range bpfEffortCases {
		b, err := programs.ByName(c.program)
		if err != nil {
			t.Fatal(err)
		}
		opts := benchOptions(b)
		opts.Target, opts.MaxStages, opts.FixedStages, opts.Seed = "bpf", c.slots, true, c.seed
		cases = append(cases, effortCase{key: fmt.Sprintf("%s/bpf@%d", c.program, c.slots), b: b, opts: opts,
			slow: c.program == "stateful_fw" && c.slots == 6})
	}
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	return append(cases, effortCase{key: "sampling/cached", b: b, opts: benchOptions(b), cached: true})
}

// effortRow formats one golden row.
func effortRow(key string, d DepthResult) string {
	return fmt.Sprintf("%s %d %v %d %d %d %d %d %d", key, d.Stages, d.Feasible,
		d.Iters, d.SynthConflicts, d.VerifyConflicts, d.Decisions, d.Propagations, d.PeakCNFVars)
}

// compileRows compiles b with opts and returns the report and one golden
// row per depth it probed, keyed by key.
func compileRows(t *testing.T, key string, b programs.Benchmark, opts Options) (*Report, []string) {
	t.Helper()
	rep, err := Compile(context.Background(), b.Parse(), opts)
	if err != nil {
		t.Fatal(err)
	}
	var rows []string
	for _, d := range rep.Depths {
		rows = append(rows, effortRow(key, d))
	}
	return rep, rows
}

// matchRows compares the rows of the compile keyed key with the golden
// rows.
func matchRows(t *testing.T, key string, got []string, want map[string][]string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want[key], "\n") {
		t.Errorf("search effort moved for %s\ngot:\n%s\nwant:\n%s",
			key, strings.Join(got, "\n"), strings.Join(want[key], "\n"))
	}
}

// checkEffort compiles c and compares its per-depth CEGIS iterations,
// solver effort and peak CNF size with the golden rows. A cached case
// compiles its program twice against one cache. The first compile must
// match the program's own rows. The second must be a cache hit; its one
// row holds its stage count and verdict, then each effort column summed
// over the depths it probed, which must all be zero.
func checkEffort(t *testing.T, c effortCase, want map[string][]string) {
	t.Helper()
	if !c.cached {
		_, got := compileRows(t, c.key, c.b, c.opts)
		matchRows(t, c.key, got, want)
		return
	}
	opts := c.opts
	opts.Cache = solcache.New(4)
	_, cold := compileRows(t, c.b.Name, c.b, opts)
	matchRows(t, c.b.Name, cold, want)
	hit, _ := compileRows(t, c.key, c.b, opts)
	if !hit.Cached {
		t.Errorf("%s: second compile missed the cache", c.key)
	}
	sum := DepthResult{Stages: hit.Usage.Stages, Feasible: hit.Feasible}
	for _, d := range hit.Depths {
		sum.Iters += d.Iters
		sum.SynthConflicts += d.SynthConflicts
		sum.VerifyConflicts += d.VerifyConflicts
		sum.Decisions += d.Decisions
		sum.Propagations += d.Propagations
		sum.PeakCNFVars = max(sum.PeakCNFVars, d.PeakCNFVars)
	}
	matchRows(t, c.key, []string{effortRow(c.key, sum)}, want)
}

// TestSearchEffortGolden compiles every effort case concurrently and
// compares each with the golden file. Every golden key must belong to a
// case, slow ones included, so a row no case compiles (a renamed program,
// a mistyped key) fails rather than passing unread. It also compiles
// sampling with seed hedging, whose effort depends on timing and is not
// pinned, and checks it finds the golden's minimum stage count.
func TestSearchEffortGolden(t *testing.T) {
	want := readEffortGolden(t)
	cases := effortCases(t)
	for key := range want {
		if !slices.ContainsFunc(cases, func(c effortCase) bool { return c.key == key }) {
			t.Errorf("golden key %q belongs to no effort case", key)
		}
	}
	for _, c := range cases {
		if testing.Short() && c.slow {
			continue
		}
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			checkEffort(t, c, want)
		})
	}
	// A compile with a seed fanout decides the golden's depth. sampling
	// compiles well inside the hedge stagger, so slot 1 never starts: this
	// checks the fanout path with slot 0 alone, not racing slots
	// (TestHedgedSharesCacheFingerprint asserts that both run).
	t.Run("sampling/hedged", func(t *testing.T) {
		t.Parallel()
		b, err := programs.ByName("sampling")
		if err != nil {
			t.Fatal(err)
		}
		opts := benchOptions(b)
		opts.SeedFanout = 2
		rep, err := Compile(context.Background(), b.Parse(), opts)
		if err != nil {
			t.Fatal(err)
		}
		last := strings.Fields(want[b.Name][len(want[b.Name])-1])
		if !rep.Feasible || fmt.Sprint(rep.Usage.Stages) != last[1] {
			t.Errorf("hedged: feasible=%v at %d stages, want feasible at the golden's %s",
				rep.Feasible, rep.Usage.Stages, last[1])
		}
	})
}

// TestSearchEffortLeaseOrder pins that CEGIS workspaces leased from the
// pool search exactly like fresh ones, whatever ran in them before. On one
// goroutine it compiles the largest corpus program first, so the pool
// holds its grown arrays, then the other corpus programs in corpus order
// with the bpf cases interleaved, so bpf sketches lease workspaces pisa
// compiles grew and the reverse; it runs the whole sequence twice, and
// every compile must match the golden file. Under -short flowlet is the
// largest and the slow cases are left out, as in TestSearchEffortGolden.
func TestSearchEffortLeaseOrder(t *testing.T) {
	want := readEffortGolden(t)
	largest := "marple_reorder"
	if testing.Short() {
		largest = "flowlet"
	}
	var first, corpus, bpf []effortCase
	for _, c := range effortCases(t) {
		switch {
		case testing.Short() && c.slow, c.cached:
		case c.key == largest:
			first = append(first, c)
		case c.opts.Target == "bpf":
			bpf = append(bpf, c)
		default:
			corpus = append(corpus, c)
		}
	}
	if len(first) != 1 {
		t.Fatalf("corpus has no %s", largest)
	}
	order := first
	for i := range max(len(corpus), len(bpf)) {
		if i < len(corpus) {
			order = append(order, corpus[i])
		}
		if i < len(bpf) {
			order = append(order, bpf[i])
		}
	}
	for round := 1; round <= 2; round++ {
		for _, c := range order {
			t.Run(fmt.Sprintf("%d/%s", round, c.key), func(t *testing.T) {
				checkEffort(t, c, want)
			})
		}
	}
}

// TestCompileAllocationGuard bounds what a warm compile allocates: once
// one compile has grown the pooled CEGIS workspaces, the next compiles of
// the same program reuse their arrays. The smallest of five deltas is
// compared, so a garbage collection that empties the pool mid-run cannot
// fail the test. The race detector drops pooled items on purpose, so the
// guard runs only without it.
func TestCompileAllocationGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random share of Puts under the race detector")
	}
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	prog, opts := b.Parse(), benchOptions(b)
	compile := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Compile(context.Background(), prog, opts); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	compile() // warm-up: grows the pooled workspaces
	least := ^uint64(0)
	for range 5 {
		least = min(least, compile())
	}
	const limit = 512 << 10
	t.Logf("smallest warm compile allocation: %.2f MiB", float64(least)/(1<<20))
	if least > limit {
		t.Errorf("a warm compile of sampling allocated %.2f MiB, want at most %.2f MiB",
			float64(least)/(1<<20), float64(limit)/(1<<20))
	}
}
