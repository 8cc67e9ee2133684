package sat

import (
	"math/rand"
	"testing"
)

// These tests pin the retention contract the persistent CEGIS synthesis
// solver and the forensics pass lean on: one Solver accumulating clauses across many Solve(assumptions...)
// rounds must give, at every round, the same verdict as a fresh solver
// built from scratch over the cumulative clause set — no matter what
// learnt clauses, phase saving, or activity state the retained solver
// carried over from earlier rounds.

// checkRound compares the retained solver's verdict on the cumulative
// clause set (under assumptions) against a fresh solver and, when the
// instance is small enough, against exhaustive enumeration.
func checkRound(t *testing.T, retained *Solver, n int, cum [][]Lit, assume []Lit) {
	t.Helper()
	got := retained.Solve(assume...)
	if got == Unknown {
		t.Fatal("unbudgeted Solve returned Unknown")
	}

	fresh := New()
	mkVars(fresh, n)
	for _, cl := range cum {
		fresh.AddClause(cl...)
	}
	want := fresh.Solve(assume...)
	if got != want {
		t.Fatalf("retained solver %v, fresh solver %v (%d clauses, %d assumptions)",
			got, want, len(cum), len(assume))
	}

	if n <= 16 {
		withUnits := append([][]Lit{}, cum...)
		for _, a := range assume {
			withUnits = append(withUnits, []Lit{a})
		}
		if enum := brute(n, withUnits); (got == Sat) != enum {
			t.Fatalf("retained solver %v, enumeration sat=%v (%d clauses, %d assumptions)",
				got, enum, len(cum), len(assume))
		}
	}

	if got == Sat {
		if !modelSatisfies(retained, cum) {
			t.Fatalf("retained model violates the cumulative formula after %d clauses", len(cum))
		}
		for _, a := range assume {
			if retained.Value(a.Var()) == a.Neg() {
				t.Fatalf("retained model violates assumption %v", a)
			}
		}
	}
}

// TestIncrementalRetentionMatchesFresh grows one solver through many
// add-clauses/solve rounds on random 3-SAT and cross-checks every round.
func TestIncrementalRetentionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(8)
		retained := New()
		mkVars(retained, n)
		var cum [][]Lit
		for round := 0; round < 8; round++ {
			batch := 1 + rng.Intn(2*n)
			for i := 0; i < batch; i++ {
				cl := make([]Lit, 1+rng.Intn(3))
				for j := range cl {
					cl[j] = MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)
				}
				cum = append(cum, cl)
				retained.AddClause(cl...)
			}
			var assume []Lit
			for v := 0; v < n && len(assume) < rng.Intn(3); v++ {
				assume = append(assume, MkLit(Var(v), rng.Intn(2) == 1))
			}
			checkRound(t, retained, n, cum, assume)
		}
	}
}

// TestIncrementalBlockingClauseEnumeration is model enumeration in
// miniature: repeatedly ask for a model, then add the clause
// negating it. The solver must enumerate each of the 2^n models of the
// unconstrained formula exactly once and then prove UNSAT.
func TestIncrementalBlockingClauseEnumeration(t *testing.T) {
	const n = 4
	s := New()
	vars := mkVars(s, n)
	seen := map[uint64]bool{}
	for round := 0; ; round++ {
		if round > 1<<n {
			t.Fatalf("enumeration did not terminate after %d rounds", round)
		}
		if s.Solve() != Sat {
			break
		}
		var m uint64
		block := make([]Lit, n)
		for i, v := range vars {
			if s.Value(v) {
				m |= 1 << uint(i)
				block[i] = NegLit(v)
			} else {
				block[i] = PosLit(v)
			}
		}
		if seen[m] {
			t.Fatalf("model %b repeated: blocking clause not retained", m)
		}
		seen[m] = true
		s.AddClause(block...)
	}
	if len(seen) != 1<<n {
		t.Fatalf("enumerated %d models, want %d", len(seen), 1<<n)
	}
}

// TestIncrementalUnsatCoreAfterRetainedRounds: the UnsatCore contract —
// a subset of the assumptions whose conjunction is already unsatisfiable
// — must survive earlier SAT rounds on the same solver.
func TestIncrementalUnsatCoreAfterRetainedRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		n := 5 + rng.Intn(5)
		s := New()
		vars := mkVars(s, n)
		var cum [][]Lit
		add := func(cl ...Lit) {
			cum = append(cum, cl)
			s.AddClause(cl...)
		}
		// An implication chain v0 -> v1 -> ... -> v(n-1) plus noise keeps
		// the formula satisfiable on its own.
		for i := 0; i+1 < n; i++ {
			add(NegLit(vars[i]), PosLit(vars[i+1]))
		}
		for i := 0; i < n; i++ {
			add(MkLit(Var(rng.Intn(n)), true), MkLit(Var(rng.Intn(n)), false))
		}
		// A few retained SAT rounds first.
		for round := 0; round < 3; round++ {
			checkRound(t, s, n, cum, []Lit{MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)})
		}
		// Contradictory assumptions across the chain: v0 and not v(n-1).
		assume := []Lit{PosLit(vars[0]), NegLit(vars[n-1]),
			MkLit(Var(rng.Intn(n)), rng.Intn(2) == 1)}
		if st := s.Solve(assume...); st != Unsat {
			continue // noise clauses may have made the chain moot; not this test's concern
		}
		core := s.UnsatCore()
		if len(core) == 0 {
			t.Fatalf("trial %d: Unsat under assumptions with empty core", trial)
		}
		inAssume := map[Lit]bool{}
		for _, a := range assume {
			inAssume[a] = true
		}
		withCore := append([][]Lit{}, cum...)
		for _, l := range core {
			if !inAssume[l] {
				t.Fatalf("trial %d: core literal %v is not an assumption %v", trial, l, assume)
			}
			withCore = append(withCore, []Lit{l})
		}
		// The blamed subset alone must already be unsatisfiable.
		if brute(n, withCore) {
			t.Fatalf("trial %d: core %v does not refute the formula", trial, core)
		}
	}
}

// TestIncrementalSolveAfterFormulaUnsat: once the clause set itself is
// refuted at the top level, every later round must stay Unsat regardless
// of assumptions — the solver must not resurrect.
func TestIncrementalSolveAfterFormulaUnsat(t *testing.T) {
	s := New()
	vars := mkVars(s, 3)
	s.AddClause(PosLit(vars[0]))
	if s.Solve() != Sat {
		t.Fatal("single unit must be Sat")
	}
	s.AddClause(NegLit(vars[0]))
	for round := 0; round < 3; round++ {
		if st := s.Solve(PosLit(vars[1])); st != Unsat {
			t.Fatalf("round %d after top-level refutation: %v, want Unsat", round, st)
		}
	}
}

// FuzzIncrementalSolve drives a retained solver through a fuzzer-chosen
// interleaving of clause additions, assumption solves and Resets, checking
// every solve against a fresh solver and exhaustive enumeration. After a
// Reset the solver must behave exactly like a new one over the clauses
// added since.
func FuzzIncrementalSolve(f *testing.F) {
	f.Add([]byte{3, 1, 5, 2, 130, 0, 7})
	f.Add([]byte{0, 4, 128, 1, 3, 0, 255, 2, 9, 17, 0, 0})
	f.Add([]byte{7, 1, 1, 1, 129, 0, 64, 2, 2, 3, 1, 130, 131, 0, 200})
	f.Add([]byte{5})
	f.Add([]byte{4, 2, 1, 130, 0, 3, 15, 2, 5, 133, 0, 9, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 3 + int(data[0])%6 // 3..8 variables
		s := New()
		mkVars(s, n)
		var cum [][]Lit
		solves := 0
		i := 1
		for i < len(data) && solves < 10 && len(cum) < 48 {
			op := data[i]
			i++
			if op%16 == 15 {
				s.Reset()
				mkVars(s, n)
				cum = nil
				continue
			}
			if op%4 == 0 {
				// Solve under one assumption derived from the next byte.
				var assume []Lit
				if i < len(data) {
					b := data[i]
					i++
					assume = []Lit{MkLit(Var(int(b)%n), b >= 128)}
				}
				checkRound(t, s, n, cum, assume)
				solves++
				continue
			}
			// Add a clause of 1..3 literals from the following bytes.
			ln := 1 + int(op)%3
			var cl []Lit
			for k := 0; k < ln && i < len(data); k++ {
				b := data[i]
				i++
				cl = append(cl, MkLit(Var(int(b)%n), b >= 128))
			}
			if len(cl) == 0 {
				break
			}
			cum = append(cum, cl)
			s.AddClause(cl...)
		}
		checkRound(t, s, n, cum, nil)
	})
}
