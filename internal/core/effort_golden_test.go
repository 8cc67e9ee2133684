package core

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/programs"
)

// effortGoldenPath pins the per-depth search effort of every corpus
// compile. Data-layout changes to the SAT solver or the circuit builder
// (clause storage, structural hashing, workspace reuse) must not change a
// single solver decision, so these counters must stay exactly equal. A
// deliberate search change regenerates the file from the table this test
// prints on mismatch.
const effortGoldenPath = "testdata/search_effort.golden"

// readEffortGolden returns the golden rows keyed by program name.
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
		name, _, _ := strings.Cut(line, " ")
		want[name] = append(want[name], line)
	}
	return want
}

// checkEffort compiles b at the corpus options (seed 7) and compares its
// per-depth CEGIS iterations, solver effort and peak CNF size with want.
func checkEffort(t *testing.T, b programs.Benchmark, want []string) {
	t.Helper()
	rep, err := Compile(context.Background(), b.Parse(), benchOptions(b))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range rep.Depths {
		got = append(got, fmt.Sprintf("%s %d %v %d %d %d %d %d %d", b.Name, d.Stages, d.Feasible,
			d.Iters, d.SynthConflicts, d.VerifyConflicts, d.Decisions, d.Propagations, d.PeakCNFVars))
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("search effort moved for %s\ngot:\n%s\nwant:\n%s",
			b.Name, strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSearchEffortGolden compiles the corpus concurrently and compares
// every compile with the golden file. marple_reorder, the slowest row
// (its infeasibility proof at one stage), runs only without -short.
func TestSearchEffortGolden(t *testing.T) {
	want := readEffortGolden(t)
	for _, b := range programs.Corpus() {
		if testing.Short() && b.Name == "marple_reorder" {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			checkEffort(t, b, want[b.Name])
		})
	}
}

// TestSearchEffortLeaseOrder pins that CEGIS workspaces leased from the
// pool search exactly like fresh ones, whatever ran in them before. On one
// goroutine it compiles the largest corpus program first, so the pool
// holds its grown arrays, then the others in corpus order, and the whole
// sequence twice; every compile must match the golden file. Under -short
// flowlet is the largest and marple_reorder is left out, as in
// TestSearchEffortGolden.
func TestSearchEffortLeaseOrder(t *testing.T) {
	want := readEffortGolden(t)
	largest := "marple_reorder"
	if testing.Short() {
		largest = "flowlet"
	}
	order := []programs.Benchmark{}
	for _, b := range programs.Corpus() {
		switch {
		case b.Name == largest:
			order = append([]programs.Benchmark{b}, order...)
		case testing.Short() && b.Name == "marple_reorder":
		default:
			order = append(order, b)
		}
	}
	if order[0].Name != largest {
		t.Fatalf("corpus has no %s", largest)
	}
	for round := 1; round <= 2; round++ {
		for _, b := range order {
			t.Run(fmt.Sprintf("%d/%s", round, b.Name), func(t *testing.T) {
				checkEffort(t, b, want[b.Name])
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
