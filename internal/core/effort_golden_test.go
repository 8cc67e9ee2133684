package core

import (
	"context"
	"fmt"
	"os"
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

// TestSearchEffortGolden compiles the corpus at the corpus options (seed 7)
// and compares per-depth CEGIS iterations, solver effort and peak CNF size
// against the golden file. marple_reorder, the slowest row (its
// infeasibility proof at one stage), runs only without -short.
func TestSearchEffortGolden(t *testing.T) {
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
	for _, b := range programs.Corpus() {
		if testing.Short() && b.Name == "marple_reorder" {
			continue
		}
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			rep, err := Compile(context.Background(), b.Parse(), benchOptions(b))
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, d := range rep.Depths {
				got = append(got, fmt.Sprintf("%s %d %v %d %d %d %d %d %d", b.Name, d.Stages, d.Feasible,
					d.Iters, d.SynthConflicts, d.VerifyConflicts, d.Decisions, d.Propagations, d.PeakCNFVars))
			}
			if strings.Join(got, "\n") != strings.Join(want[b.Name], "\n") {
				t.Errorf("search effort moved for %s\ngot:\n%s\nwant:\n%s",
					b.Name, strings.Join(got, "\n"), strings.Join(want[b.Name], "\n"))
			}
		})
	}
}
