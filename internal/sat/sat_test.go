package sat

import (
	"math/rand"
	"testing"
)

// mkVars allocates n fresh variables.
func mkVars(s *Solver, n int) []Var {
	vs := make([]Var, n)
	for i := range vs {
		vs[i] = s.NewVar()
	}
	return vs
}

func TestTrivialSat(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(PosLit(v)) {
		t.Fatal("unit clause rejected")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(v) {
		t.Fatal("unit-propagated variable should be true")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	v := s.NewVar()
	s.AddClause(PosLit(v))
	if s.AddClause(NegLit(v)) {
		t.Fatal("contradicting unit should report top-level conflict")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should make formula unsat")
	}
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

func TestTautologyAccepted(t *testing.T) {
	s := New()
	v := s.NewVar()
	if !s.AddClause(PosLit(v), NegLit(v)) {
		t.Fatal("tautology should be accepted")
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}

func TestDuplicateLiterals(t *testing.T) {
	s := New()
	v := s.NewVar()
	w := s.NewVar()
	s.AddClause(PosLit(v), PosLit(v), PosLit(w))
	s.AddClause(NegLit(w))
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	if !s.Value(v) || s.Value(w) {
		t.Fatalf("model v=%v w=%v, want v=true w=false", s.Value(v), s.Value(w))
	}
}

func TestChainImplication(t *testing.T) {
	// x0 and (x_i -> x_{i+1}) forces all true.
	s := New()
	const n = 50
	vs := mkVars(s, n)
	s.AddClause(PosLit(vs[0]))
	for i := 0; i+1 < n; i++ {
		s.AddClause(NegLit(vs[i]), PosLit(vs[i+1]))
	}
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
	for i, v := range vs {
		if !s.Value(v) {
			t.Fatalf("var %d should be true", i)
		}
	}
}

func TestXorChainUnsat(t *testing.T) {
	// (a xor b), (b xor c), (a xor c) with odd parity is unsat:
	// encode each xor=1 as two clauses.
	s := New()
	a, b, c := s.NewVar(), s.NewVar(), s.NewVar()
	xor1 := func(x, y Var) {
		s.AddClause(PosLit(x), PosLit(y))
		s.AddClause(NegLit(x), NegLit(y))
	}
	xor1(a, b)
	xor1(b, c)
	xor1(a, c)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
}

// pigeonhole encodes PHP(n+1, n): n+1 pigeons into n holes, always unsat and
// requires real conflict analysis to refute quickly.
func pigeonhole(s *Solver, pigeons, holes int) {
	p := make([][]Var, pigeons)
	for i := range p {
		p[i] = mkVars(s, holes)
	}
	for i := 0; i < pigeons; i++ {
		lits := make([]Lit, holes)
		for j := 0; j < holes; j++ {
			lits[j] = PosLit(p[i][j])
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
}

func TestPigeonholeUnsat(t *testing.T) {
	for n := 2; n <= 6; n++ {
		s := New()
		pigeonhole(s, n+1, n)
		if got := s.Solve(); got != Unsat {
			t.Fatalf("PHP(%d,%d) = %v, want Unsat", n+1, n, got)
		}
	}
}

func TestPigeonholeSat(t *testing.T) {
	s := New()
	pigeonhole(s, 5, 5) // equal pigeons and holes: satisfiable
	if got := s.Solve(); got != Sat {
		t.Fatalf("PHP(5,5) = %v, want Sat", got)
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	a, b := s.NewVar(), s.NewVar()
	s.AddClause(NegLit(a), PosLit(b)) // a -> b
	if got := s.Solve(PosLit(a), NegLit(b)); got != Unsat {
		t.Fatalf("Solve(a, !b) = %v, want Unsat", got)
	}
	// Same database must remain satisfiable without assumptions.
	if got := s.Solve(); got != Sat {
		t.Fatalf("Solve() = %v, want Sat", got)
	}
	if got := s.Solve(PosLit(a)); got != Sat {
		t.Fatalf("Solve(a) = %v, want Sat", got)
	}
	if !s.Value(b) {
		t.Fatal("under assumption a, b must be true")
	}
}

func TestIncrementalAddBetweenSolves(t *testing.T) {
	s := New()
	vs := mkVars(s, 3)
	s.AddClause(PosLit(vs[0]), PosLit(vs[1]))
	if got := s.Solve(); got != Sat {
		t.Fatalf("first Solve = %v, want Sat", got)
	}
	s.AddClause(NegLit(vs[0]))
	s.AddClause(NegLit(vs[1]))
	if got := s.Solve(); got != Unsat {
		t.Fatalf("after narrowing, Solve = %v, want Unsat", got)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	s := New()
	pigeonhole(s, 9, 8) // hard enough to exceed a tiny budget
	st, err := s.SolveWithBudget(1)
	if err != ErrBudget || st != Unknown {
		t.Fatalf("SolveWithBudget(1) = (%v, %v), want (Unknown, ErrBudget)", st, err)
	}
	// Full solve must still work after a budgeted attempt.
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve after budget = %v, want Unsat", got)
	}
}

// brute checks satisfiability of a CNF over n vars by enumeration.
func brute(n int, cnf [][]Lit) bool {
	for m := 0; m < 1<<uint(n); m++ {
		ok := true
		for _, cl := range cnf {
			sat := false
			for _, l := range cl {
				val := m&(1<<uint(l.Var())) != 0
				if val != l.Neg() {
					sat = true
					break
				}
			}
			if !sat {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

// modelSatisfies checks the solver's model against the original CNF.
func modelSatisfies(s *Solver, cnf [][]Lit) bool {
	for _, cl := range cnf {
		sat := false
		for _, l := range cl {
			if s.Value(l.Var()) != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// TestRandomCNFAgainstBruteForce is the solver's main correctness property:
// on random 3-SAT near the phase transition, agree with exhaustive search,
// and return genuine models on SAT instances.
func TestRandomCNFAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(10) // 3..12 vars
		m := int(float64(n)*4.26) + rng.Intn(5)
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New()
		mkVars(s, n)
		early := false
		for _, cl := range cnf {
			if !s.AddClause(cl...) {
				early = true
			}
		}
		got := s.Solve()
		want := brute(n, cnf)
		if early && want {
			t.Fatalf("trial %d: AddClause reported unsat but formula is sat", trial)
		}
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v (n=%d m=%d)", trial, got, want, n, m)
		}
		if got == Sat && !modelSatisfies(s, cnf) {
			t.Fatalf("trial %d: model does not satisfy formula", trial)
		}
	}
}

func TestRandomCNFWithAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(6)
		m := n * 3
		cnf := make([][]Lit, m)
		for i := range cnf {
			cl := make([]Lit, 3)
			for j := range cl {
				cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			cnf[i] = cl
		}
		s := New()
		mkVars(s, n)
		ok := true
		for _, cl := range cnf {
			ok = s.AddClause(cl...) && ok
		}
		// Assume the first two variables; brute force with the assumptions
		// added as unit clauses.
		assume := []Lit{MkLit(0, rng.Intn(2) == 1), MkLit(1, rng.Intn(2) == 1)}
		withUnits := append(append([][]Lit{}, cnf...), []Lit{assume[0]}, []Lit{assume[1]})
		want := brute(n, withUnits)
		got := s.Solve(assume...)
		if !ok {
			// Formula already unsat at top level; assumptions cannot help.
			if want {
				t.Fatalf("trial %d: inconsistent top-level unsat", trial)
			}
			continue
		}
		if (got == Sat) != want {
			t.Fatalf("trial %d: solver=%v brute=%v under assumptions", trial, got, want)
		}
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if got := luby(int64(i + 1)); got != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, got, w)
		}
	}
}

func TestLitEncoding(t *testing.T) {
	v := Var(13)
	p, n := PosLit(v), NegLit(v)
	if p.Var() != v || n.Var() != v {
		t.Fatal("Var round-trip failed")
	}
	if p.Neg() || !n.Neg() {
		t.Fatal("Neg flags wrong")
	}
	if p.Not() != n || n.Not() != p {
		t.Fatal("Not is not an involution pair")
	}
	if p.String() != "14" || n.String() != "-14" {
		t.Fatalf("String() = %q / %q", p.String(), n.String())
	}
}

func TestStatsPopulated(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.Solve()
	st := s.Stats()
	if st.Conflicts == 0 || st.Decisions == 0 || st.Propagations == 0 {
		t.Fatalf("expected non-zero search stats, got %+v", st)
	}
	if st.MaxVar != 30 {
		t.Fatalf("MaxVar = %d, want 30", st.MaxVar)
	}
}

func TestQuickSelectMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := quickSelectMedian(xs); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	xs = []float64{2, 1}
	if m := quickSelectMedian(xs); m != 2 {
		t.Fatalf("median of pair = %v, want 2", m)
	}
	xs = []float64{7}
	if m := quickSelectMedian(xs); m != 7 {
		t.Fatalf("median of singleton = %v, want 7", m)
	}
}

func TestHeapOrdering(t *testing.T) {
	act := make([]float64, 10)
	h := newVarHeap(&act)
	for i := 0; i < 10; i++ {
		act[i] = float64(i % 5)
		h.insert(Var(i))
	}
	act[3] = 100
	h.update(3)
	if top := h.removeMax(); top != 3 {
		t.Fatalf("removeMax = %d, want 3", top)
	}
	prev := 1e18
	for !h.empty() {
		v := h.removeMax()
		if act[v] > prev {
			t.Fatalf("heap order violated: %v after %v", act[v], prev)
		}
		prev = act[v]
	}
}

func BenchmarkSolverPigeonhole(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New()
		pigeonhole(s, 8, 7)
		if s.Solve() != Unsat {
			b.Fatal("PHP should be unsat")
		}
	}
}

func BenchmarkSolverRandom3SAT(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		n := 60
		s := New()
		mkVars(s, n)
		for j := 0; j < int(float64(n)*4.2); j++ {
			var cl [3]Lit
			for k := range cl {
				cl[k] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
			}
			s.AddClause(cl[:]...)
		}
		s.Solve()
	}
}

// TestStatsDeltaSumsToCumulative runs several incremental solves against
// one solver, taking a delta after each; the deltas must sum exactly to
// the cumulative snapshot.
func TestStatsDeltaSumsToCumulative(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)

	var sum Stats
	add := func(d Stats) {
		sum.Conflicts += d.Conflicts
		sum.Decisions += d.Decisions
		sum.Propagations += d.Propagations
		sum.Restarts += d.Restarts
		sum.Learnt += d.Learnt
		sum.DeletedLearnt += d.DeletedLearnt
	}

	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(6,5) = %v, want Unsat", got)
	}
	first := s.StatsDelta()
	if first.Conflicts == 0 || first.Decisions == 0 {
		t.Fatalf("first delta should cover the whole solve: %+v", first)
	}
	add(first)

	// More incremental work on the same solver: a fresh satisfiable
	// sub-problem sharing the database.
	vs := mkVars(s, 8)
	for i := 0; i+1 < len(vs); i++ {
		s.AddClause(PosLit(vs[i]), PosLit(vs[i+1]))
	}
	s.Solve()
	add(s.StatsDelta())
	s.Solve(NegLit(vs[0]))
	add(s.StatsDelta())

	cum := s.Stats()
	if sum.Conflicts != cum.Conflicts || sum.Decisions != cum.Decisions ||
		sum.Propagations != cum.Propagations || sum.Restarts != cum.Restarts ||
		sum.Learnt != cum.Learnt || sum.DeletedLearnt != cum.DeletedLearnt {
		t.Fatalf("delta sum %+v != cumulative %+v", sum, cum)
	}

	// An immediate second call sees no new work.
	if d := s.StatsDelta(); d.Conflicts != 0 || d.Decisions != 0 || d.Propagations != 0 {
		t.Fatalf("idle delta should be zero: %+v", d)
	}
	// Levels pass through as current values.
	if d := s.StatsDelta(); d.MaxVar != cum.MaxVar || d.Clauses != cum.Clauses {
		t.Fatalf("levels should carry current values: %+v vs %+v", d, cum)
	}
}

func TestProgressCallback(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7)
	var calls []int64
	s.SetProgress(10, func(st Stats) { calls = append(calls, st.Conflicts) })
	if got := s.Solve(); got != Unsat {
		t.Fatalf("PHP(8,7) = %v, want Unsat", got)
	}
	total := s.Stats().Conflicts
	if want := total / 10; int64(len(calls)) != want {
		t.Fatalf("progress called %d times for %d conflicts, want %d", len(calls), total, want)
	}
	for i, c := range calls {
		if c != int64(i+1)*10 {
			t.Fatalf("call %d at %d conflicts, want %d", i, c, (i+1)*10)
		}
	}
	// Disabling stops further calls.
	s.SetProgress(0, nil)
	n := len(calls)
	s.Solve()
	if len(calls) != n {
		t.Fatal("progress fired after being disabled")
	}
}

func TestStopHookImmediate(t *testing.T) {
	s := New()
	pigeonhole(s, 8, 7)
	s.SetStop(func() bool { return true })
	st, err := s.SolveWithBudget(-1)
	if st != Unknown || err != ErrStopped {
		t.Fatalf("SolveWithBudget = %v, %v; want Unknown, ErrStopped", st, err)
	}
}

func TestStopHookMidSolve(t *testing.T) {
	// A hard UNSAT instance: without the stop the solve takes many
	// thousands of conflicts. Stop after the first poll fires.
	s := New()
	pigeonhole(s, 9, 8)
	var polls int
	s.SetStop(func() bool {
		polls++
		return polls > 1
	})
	st, err := s.SolveWithBudget(-1)
	if st != Unknown || err != ErrStopped {
		t.Fatalf("SolveWithBudget = %v, %v; want Unknown, ErrStopped", st, err)
	}
	if s.Stats().Conflicts == 0 {
		t.Fatal("solver stopped before doing any work")
	}
}

func TestStopHookClearedSolveCompletes(t *testing.T) {
	// A stop that fired must not poison later solves once cleared.
	s := New()
	pigeonhole(s, 6, 5)
	stop := true
	s.SetStop(func() bool { return stop })
	if st, err := s.SolveWithBudget(-1); st != Unknown || err != ErrStopped {
		t.Fatalf("stopped solve = %v, %v; want Unknown, ErrStopped", st, err)
	}
	stop = false
	if got := s.Solve(); got != Unsat {
		t.Fatalf("resumed solve = %v, want Unsat", got)
	}
	s.SetStop(nil)
	if got := s.Solve(); got != Unsat {
		t.Fatalf("re-solve with hook cleared = %v, want Unsat", got)
	}
}

func TestStopHookNeverFiringKeepsResult(t *testing.T) {
	s := New()
	pigeonhole(s, 6, 5)
	s.SetStop(func() bool { return false })
	if got := s.Solve(); got != Unsat {
		t.Fatalf("Solve = %v, want Unsat", got)
	}
	s2 := New()
	pigeonhole(s2, 5, 5)
	s2.SetStop(func() bool { return false })
	if got := s2.Solve(); got != Sat {
		t.Fatalf("Solve = %v, want Sat", got)
	}
}
