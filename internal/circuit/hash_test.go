package circuit

import (
	"slices"
	"testing"

	"repro/internal/sat"
)

// wideCircuit builds a datapath of well over 10k gates over the given
// inputs: enough interned gates to force the structural hash through
// several doublings.
func wideCircuit(b *Builder, x, y Word) []Word {
	m := b.MulW(x, y)
	return []Word{m, b.MulW(m, b.AddW(x, y)), b.ShlW(m, y), b.MuxW(b.SltW(x, y), m, b.XorW(x, y))}
}

// TestStructuralHashRebuildLarge rebuilds a >10k-gate circuit over the same
// inputs in one builder: every gate must be found in the hash, so the
// rebuild returns identical bits and adds no gate.
func TestStructuralHashRebuildLarge(t *testing.T) {
	b := New()
	x, y := b.InputWord("x", 32), b.InputWord("y", 32)
	first := wideCircuit(b, x, y)
	n := b.NumGates()
	if n <= 10000 {
		t.Fatalf("circuit has only %d gates; the test needs more than 10k", n)
	}
	again := wideCircuit(b, x, y)
	if !slices.EqualFunc(first, again, slices.Equal[Word]) {
		t.Fatal("rebuilding the same circuit returned different bits")
	}
	if b.NumGates() != n {
		t.Fatalf("rebuild grew the DAG from %d to %d gates", n, b.NumGates())
	}
}

// TestResetNumbersLikeFresh: after Reset, a builder that has held a large
// circuit numbers a new circuit's gates exactly as a new builder does.
func TestResetNumbersLikeFresh(t *testing.T) {
	build := func(b *Builder) []Word {
		x, y := b.InputWord("x", 12), b.InputWord("y", 12)
		return []Word{b.AddW(b.MulW(x, y), x), b.ShrW(y, x)}
	}
	fresh := New()
	want := build(fresh)

	reused := New()
	x, y := reused.InputWord("a", 32), reused.InputWord("b", 32)
	wideCircuit(reused, x, y)
	for round := 1; round <= 2; round++ {
		reused.Reset()
		if reused.NumGates() != 2 {
			t.Fatalf("Reset left %d gates, want the 2 constants", reused.NumGates())
		}
		got := build(reused)
		if !slices.EqualFunc(got, want, slices.Equal[Word]) || !slices.Equal(reused.gates, fresh.gates) {
			t.Fatalf("Reset #%d: gate numbering differs from a fresh builder", round)
		}
	}
}

// TestMuxThirdOperandNotMerged guards the hash key: Mux gates that differ
// only in their third operand are different gates.
func TestMuxThirdOperandNotMerged(t *testing.T) {
	b := New()
	s, tv, f1, f2 := b.Input("s"), b.Input("t"), b.Input("f1"), b.Input("f2")
	m1 := b.Mux(s, tv, f1)
	m2 := b.Mux(s, tv, f2)
	if m1 == m2 {
		t.Fatal("Mux(s, t, f1) and Mux(s, t, f2) were merged")
	}
	if b.Mux(s, tv, f1) != m1 || b.Mux(s, tv, f2) != m2 {
		t.Fatal("repeated Mux was not found in the structural hash")
	}
}

// TestResetWorkspaceEncodesWithoutAllocating is the allocation guard for
// workspace reuse: once a builder, solver and encoder have held the
// MulW(10) circuit, resetting them, re-interning the same gates, encoding
// the equation and solving it allocates nothing.
func TestResetWorkspaceEncodesWithoutAllocating(t *testing.T) {
	bld, s := New(), sat.New()
	cnf := NewCNF(bld, s)
	x, y := bld.InputWord("x", 10), bld.InputWord("y", 10)
	eq := bld.EqW(bld.MulW(x, y), bld.ConstWord(391, 10))
	gates := slices.Clone(bld.gates)

	var st sat.Status
	allocs := testing.AllocsPerRun(20, func() {
		bld.Reset()
		s.Reset()
		cnf.Reset()
		for _, g := range gates[2:] {
			if g.op == opInput {
				bld.Input("")
			} else {
				bld.intern(g)
			}
		}
		cnf.Assert(eq)
		st = s.Solve()
	})
	if st != sat.Sat {
		t.Fatalf("x*y == 391 at 10 bits: %v, want SAT", st)
	}
	if allocs != 0 {
		t.Fatalf("encoding into a Reset workspace allocated %.1f times per run, want 0", allocs)
	}
}
