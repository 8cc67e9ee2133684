package sat

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// dirty drives s through the history a reused CEGIS solver carries into
// its next query: learnt clauses, an assumption solve with a core, stats
// deltas, a progress callback and — last — a stop hook that fires on the
// next poll. Reset must erase all of it.
func dirty(t *testing.T, s *Solver) {
	t.Helper()
	pigeonhole(s, 6, 5)
	s.SetProgress(1, func(Stats) {})
	s.Solve(PosLit(0), NegLit(7))
	s.StatsDelta()
	extra := s.NewVar()
	s.AddClause(PosLit(extra), NegLit(3))
	s.SetStop(func() bool { return true })
	if _, err := s.SolveWithBudget(-1); err != ErrStopped {
		t.Fatal("the stop hook did not fire")
	}
}

// runSummary is everything observable about one solve.
type runSummary struct {
	status  Status
	stats   Stats
	model   []bool
	core    []Lit
	vars    int
	clauses int
}

func summarize(s *Solver, load func(*Solver), assume []Lit) runSummary {
	load(s)
	st := s.Solve(assume...)
	sum := runSummary{status: st, stats: s.Stats(), core: s.UnsatCore(), vars: s.NumVars(), clauses: s.NumClauses()}
	sum.stats.SolveNS = 0 // wall clock, the only counter allowed to differ
	for v := 0; v < s.NumVars(); v++ {
		sum.model = append(sum.model, s.Value(Var(v)))
	}
	return sum
}

func sameSummary(a, b runSummary) bool {
	return a.status == b.status && a.stats == b.stats && slices.Equal(a.model, b.model) &&
		slices.Equal(a.core, b.core) && a.vars == b.vars && a.clauses == b.clauses
}

// TestResetMatchesNew checks Reset's contract: a solver with a history,
// once Reset, makes exactly the decisions a New solver makes — same
// verdict, counters, model and UNSAT core — on pigeonhole and seeded
// random 3-SAT instances, with and without assumptions, and again after a
// second Reset.
func TestResetMatchesNew(t *testing.T) {
	type instance struct {
		name   string
		load   func(*Solver)
		assume []Lit
	}
	cases := []instance{
		{"php-7-6-unsat", func(s *Solver) { pigeonhole(s, 7, 6) }, nil},
		{"php-6-6-sat", func(s *Solver) { pigeonhole(s, 6, 6) }, nil},
		{"php-6-6-assume", func(s *Solver) { pigeonhole(s, 6, 6) }, []Lit{PosLit(0), PosLit(6), NegLit(13)}},
	}
	for seed := int64(1); seed <= 6; seed++ {
		f := randomFormula(rand.New(rand.NewSource(seed)), 70, 290, 3)
		rng := rand.New(rand.NewSource(seed + 100))
		var assume []Lit
		for k := 0; k < 12; k++ {
			assume = append(assume, MkLit(Var(rng.Intn(f.NumVars)), rng.Intn(2) == 1))
		}
		load := func(s *Solver) { f.LoadInto(s) }
		cases = append(cases,
			instance{"random3sat", load, nil},
			instance{"random3sat-assume", load, assume})
	}
	cores := 0
	for _, c := range cases {
		want := summarize(New(), c.load, c.assume)
		reused := New()
		dirty(t, reused)
		for round := 1; round <= 2; round++ {
			reused.Reset()
			got := summarize(reused, c.load, c.assume)
			if !sameSummary(got, want) {
				t.Fatalf("%s, Reset #%d: reused solver diverged from New:\n got %+v\nwant %+v", c.name, round, got.stats, want.stats)
			}
		}
		if len(want.core) > 0 {
			cores++
		}
	}
	if cores == 0 {
		t.Fatal("no case produced an UNSAT core; the core comparison is vacuous")
	}
}

// liveClauses copies the literals of every live clause, keyed by ref.
func liveClauses(s *Solver) map[clauseRef][]Lit {
	out := map[clauseRef][]Lit{}
	for i := range s.clauses {
		if !s.clauses[i].deleted {
			out[clauseRef(i)] = slices.Clone(s.lits(clauseRef(i)))
		}
	}
	return out
}

// checkSurvivors fails unless every clause live after a reduction or
// compaction kept its literals, in order, and is still watched on its
// first two.
func checkSurvivors(t *testing.T, s *Solver, before map[clauseRef][]Lit) {
	t.Helper()
	for ref, lits := range liveClauses(s) {
		if !slices.Equal(lits, before[ref]) {
			t.Fatalf("clause %d literals %v, want %v", ref, lits, before[ref])
		}
		for _, w := range lits[:2] {
			if !slices.ContainsFunc(s.watches[w.Not()], func(x watcher) bool { return x.ref == ref }) {
				t.Fatalf("clause %d lost its watch on %v", ref, w)
			}
		}
	}
}

// TestReduceDBCompaction accumulates learnt clauses through assumption
// solves on a 20-variable instance, reduces the database, compacts the
// arena, and checks that every surviving clause kept its literals and
// watches and that the verdicts still agree with exhaustive enumeration.
// A 20-variable instance's problem clauses outweigh what it can learn, so
// reduceDB alone never crosses the compaction threshold here; the test
// compacts explicitly (TestReduceDBCompactsPastHalf covers the trigger).
func TestReduceDBCompaction(t *testing.T) {
	// Random 4-XOR constraints (eight clauses each) are hard for CDCL, so
	// even a 20-variable instance learns over a hundred clauses.
	rng := rand.New(rand.NewSource(5))
	f := &Formula{NumVars: 20}
	planted := rng.Uint32() // a solution, so the formula stays satisfiable
	for i := 0; i < 18; i++ {
		v := rng.Perm(f.NumVars)[:4]
		parity := 0
		for _, x := range v {
			parity ^= int(planted >> x & 1)
		}
		for m := 0; m < 16; m++ {
			// Forbid each assignment of the four variables whose XOR
			// differs from parity.
			if bits.OnesCount(uint(m))&1 == parity {
				continue
			}
			cl := make([]Lit, 4)
			for k := range cl {
				cl[k] = MkLit(Var(v[k]), m>>k&1 == 1)
			}
			f.AddClause(cl...)
		}
	}
	s, ok := f.Load()
	if !ok {
		t.Fatal("formula refuted while loading")
	}
	randomAssumptions := func() []Lit {
		var as []Lit
		for k := 0; k < 4; k++ {
			as = append(as, MkLit(Var(rng.Intn(f.NumVars)), rng.Intn(2) == 1))
		}
		return as
	}
	for i := 0; i < 400; i++ {
		s.Solve(randomAssumptions()...)
	}
	if len(s.learnts) < 100 {
		t.Fatalf("only %d learnt clauses; the test needs many", len(s.learnts))
	}

	for len(s.learnts) > 0 {
		before, n := liveClauses(s), len(s.learnts)
		s.reduceDB()
		checkSurvivors(t, s, before)
		if len(s.learnts) == n {
			break // only locked, binary or tied clauses remain
		}
	}
	if s.stats.DeletedLearnt == 0 || s.wasted == 0 {
		t.Fatalf("reductions deleted %d clauses, %d literals pending compaction", s.stats.DeletedLearnt, s.wasted)
	}
	before, want := liveClauses(s), len(s.arena)-s.wasted
	s.compactArena()
	checkSurvivors(t, s, before)
	if len(s.arena) != want || s.wasted != 0 {
		t.Fatalf("compaction left arena %d, want %d (wasted %d)", len(s.arena), want, s.wasted)
	}

	for i := 0; i < 8; i++ {
		as := randomAssumptions()
		g := &Formula{NumVars: f.NumVars, Clauses: slices.Clone(f.Clauses)}
		for _, a := range as {
			g.Clauses = append(g.Clauses, []Lit{a})
		}
		want, _, err := EnumSolve(g)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Solve(as...); got != want {
			t.Fatalf("after compaction: CDCL %v, enumeration %v under %v", got, want, as)
		}
	}
}

// TestReduceDBCompactsPastHalf refutes a pigeonhole instance gated by a
// selector under the assumption that the selector holds, which learns
// thousands of clauses without refuting the formula itself. Learnt
// literals then dominate the arena, so reduceDB must compact it on its
// own once deleted literals pass half, and the solver must still answer
// both ways.
func TestReduceDBCompactsPastHalf(t *testing.T) {
	s := New()
	g := s.NewVar()
	const pigeons, holes = 7, 6
	p := make([][]Var, pigeons)
	for i := range p {
		p[i] = mkVars(s, holes)
		lits := []Lit{NegLit(g)}
		for _, v := range p[i] {
			lits = append(lits, PosLit(v))
		}
		s.AddClause(lits...)
	}
	for j := 0; j < holes; j++ {
		for i := 0; i < pigeons; i++ {
			for k := i + 1; k < pigeons; k++ {
				s.AddClause(NegLit(p[i][j]), NegLit(p[k][j]))
			}
		}
	}
	if st := s.Solve(PosLit(g)); st != Unsat {
		t.Fatalf("gated pigeonhole under its selector: %v, want Unsat", st)
	}
	if len(s.learnts) < 300 {
		t.Fatalf("only %d learnt clauses", len(s.learnts))
	}
	compacted := false
	for round := 0; round < 4 && !compacted; round++ {
		before, arena := liveClauses(s), len(s.arena)
		s.reduceDB()
		checkSurvivors(t, s, before)
		compacted = len(s.arena) < arena
	}
	if !compacted {
		t.Fatalf("four reductions never compacted the arena (wasted %d of %d)", s.wasted, len(s.arena))
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("gated pigeonhole without assumptions: %v, want Sat", st)
	}
	if st := s.Solve(PosLit(g)); st != Unsat {
		t.Fatalf("gated pigeonhole under its selector after compaction: %v, want Unsat", st)
	}
}
