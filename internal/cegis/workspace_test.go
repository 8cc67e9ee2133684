package cegis

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/programs"
	"repro/internal/sat"
)

// dirty leaves ws as an abandoned run would: groups on, a pigeonhole
// instance (9 pigeons, 8 holes) encoded under a group, and a solve cut
// short by a firing stop hook with a progress hook still installed.
func dirty(t *testing.T, ws *workspace) {
	t.Helper()
	const pigeons, holes = 9, 8
	b, cnf := ws.b, ws.cnf
	cnf.EnableGroups()
	cnf.SetGroup("php")
	var x [pigeons][holes]circuit.Bit
	for i := range x {
		some := circuit.False
		for j := range x[i] {
			x[i][j] = b.Input(fmt.Sprintf("x%d_%d", i, j))
			some = b.Or(some, x[i][j])
		}
		cnf.Assert(some)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				cnf.AssertNot(b.And(x[i][j], x[k][j]))
			}
		}
	}
	polls := 0
	ws.s.SetStop(func() bool { polls++; return polls > 1 })
	ws.s.SetProgress(1, func(sat.Stats) {})
	if _, err := ws.s.SolveWithBudget(-1, cnf.GroupAssumptions(cnf.Groups())...); !errors.Is(err, sat.ErrStopped) {
		t.Fatalf("dirtying solve: err = %v, want sat.ErrStopped", err)
	}
	if ws.s.Stats().Conflicts == 0 {
		t.Fatal("dirtying solve stopped before its first conflict")
	}
}

// goldenEffort returns core's search-effort golden row for a program at
// one stage: what the compile at seed 7 reports in a fresh process.
func goldenEffort(t *testing.T, name string) string {
	t.Helper()
	raw, err := os.ReadFile("../core/testdata/search_effort.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, name+" 1 ") {
			return line
		}
	}
	t.Fatalf("no one-stage golden row for %s", name)
	return ""
}

// TestReleasedWorkspaceSearchesLikeFresh leaves two workspaces mid-solve
// (stop hook fired, progress hook and groups on), releases them, and runs
// a fixed synthesis, which leases them again: its counters must equal
// what a fresh process reports. Pool reuse is not guaranteed, so rounds
// repeat until one has reused both workspaces.
func TestReleasedWorkspaceSearchesLikeFresh(t *testing.T) {
	bench, err := programs.ByName("rcp")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenEffort(t, bench.Name)
	g := grid(1, bench.Width, bench.StatefulALU, bench.ConstBits)
	prog := bench.Parse()

	made := 0
	newWorkspace := workspaces.New
	workspaces.New = func() any { made++; return newWorkspace() }
	defer func() { workspaces.New = newWorkspace }()

	for round := 1; ; round++ {
		syn, ver := leaseWorkspace(), leaseWorkspace()
		dirty(t, syn)
		dirty(t, ver)
		ver.release()
		syn.release()

		made = 0
		res, err := synthesizeGrid(context.Background(), prog, g, Options{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%s 1 %v %d %d %d %d %d %d", bench.Name, res.Feasible, res.Iters,
			res.SynthConflicts, res.VerifyConflicts, res.Decisions, res.Propagations, res.PeakCNFVars)
		if got != want {
			t.Fatalf("round %d: after reusing released workspaces\ngot  %s\nwant %s", round, got, want)
		}
		if made == 0 {
			return
		}
		if round == 20 {
			t.Fatalf("no round in %d reused both released workspaces", round)
		}
	}
}
