package pisa

import (
	"slices"
	"testing"

	"repro/internal/alu"
	"repro/internal/circuit"
	"repro/internal/sat"
	"repro/internal/word"
)

// newSketch builds a sketch of the grid at its own stage count.
func newSketch(t *testing.T, b *circuit.Builder, g GridSpec, numFields, numStates int, indicator bool) *Sketch {
	t.Helper()
	sk, err := Backend{Grid: g, IndicatorAlloc: indicator}.NewSketch(b, g.Stages, numFields, numStates)
	if err != nil {
		t.Fatal(err)
	}
	return sk.(*Sketch)
}

// holeTotals counts a sketch's holes and sums their bits.
func holeTotals(s *Sketch) (holes, bits int) {
	names, widths := s.HoleInventory()
	for _, w := range widths {
		bits += w
	}
	return len(names), bits
}

func TestNewSketchRejectsOverCapacity(t *testing.T) {
	b := circuit.New()
	newSk := func(g GridSpec, nf, ns int) error {
		_, err := Backend{Grid: g}.NewSketch(b, g.Stages, nf, ns)
		return err
	}
	if err := newSk(testGrid(1, 2, alu.Counter), 3, 0); err == nil {
		t.Fatal("3 fields into 2 containers should fail")
	}
	if err := newSk(testGrid(1, 2, alu.Counter), 1, 3); err == nil {
		t.Fatal("3 states into 2 slots should fail")
	}
	if err := newSk(testGrid(0, 2, alu.Counter), 1, 1); err == nil {
		t.Fatal("invalid grid should fail")
	}
	// Pair doubles state capacity.
	if err := newSk(testGrid(1, 2, alu.Pair), 1, 4); err != nil {
		t.Fatalf("4 states fit 2 pair slots: %v", err)
	}
}

func TestHoleCountScalesWithGrid(t *testing.T) {
	s1 := newSketch(t, circuit.New(), testGrid(1, 2, alu.Counter), 2, 1, false)
	s2 := newSketch(t, circuit.New(), testGrid(2, 2, alu.Counter), 2, 1, false)
	h1, bits1 := holeTotals(s1)
	h2, bits2 := holeTotals(s2)
	if h2 != 2*h1 || bits2 != 2*bits1 {
		t.Fatalf("2 stages should double holes: %d/%d vs %d/%d", h1, bits1, h2, bits2)
	}
}

func TestIndicatorModeAddsHoles(t *testing.T) {
	canon := newSketch(t, circuit.New(), testGrid(1, 2, alu.Counter), 2, 0, false)
	indic := newSketch(t, circuit.New(), testGrid(1, 2, alu.Counter), 2, 0, true)
	hc, _ := holeTotals(canon)
	hi, _ := holeTotals(indic)
	if hi != hc+4 { // 2 fields x 2 containers indicator bits
		t.Fatalf("indicator mode holes = %d, want %d", hi, hc+4)
	}
}

func TestMinWidth(t *testing.T) {
	s := newSketch(t, circuit.New(), testGrid(1, 2, alu.Counter), 1, 0, false)
	// The stateless opcode (4 bits) is the widest control hole.
	if s.MinWidth() != 4 {
		t.Fatalf("MinWidth = %d, want 4", s.MinWidth())
	}
}

// TestDomainConstraintsEnforced solves the domain constraints alone and
// checks the extracted configuration is valid per pisa.Config.Validate.
func TestDomainConstraintsEnforced(t *testing.T) {
	for _, kind := range []alu.Kind{alu.Counter, alu.Pair} {
		b := circuit.New()
		g := testGrid(2, 2, kind)
		s := newSketch(t, b, g, 1, 1, true)
		solver := sat.New()
		cnf := circuit.NewCNF(b, solver)
		s.AssertDomains(cnf)
		if solver.Solve() != sat.Sat {
			t.Fatalf("%s: domain constraints alone must be satisfiable", kind)
		}
		cfg := s.Extract(cnf, []string{"f"}, []string{"s"}, 10)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: extracted config violates constraints: %v", kind, err)
		}
	}
}

// TestOpcodeMaskAssertion checks that masked-out opcodes cannot appear in
// any model.
func TestOpcodeMaskAssertion(t *testing.T) {
	b := circuit.New()
	g := testGrid(1, 1, alu.Counter)
	g.StatelessALU.OpcodeMask = 1<<alu.SlOpAdd | 1<<alu.SlOpSub
	s := newSketch(t, b, g, 1, 0, false)
	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	s.AssertDomains(cnf)
	// Enumerate all models' opcodes by blocking: at most 2 distinct.
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		if solver.Solve() != sat.Sat {
			break
		}
		cfg := s.Extract(cnf, []string{"f"}, nil, 10).(*Config)
		op := cfg.Values.Stateless[0][0]["opcode"]
		seen[op] = true
		if op != alu.SlOpAdd && op != alu.SlOpSub {
			t.Fatalf("model picked masked-out opcode %d", op)
		}
		// Block this opcode to find the next.
		hole := s.holes.Stateless[0][0]["opcode"]
		cnf.AssertNot(b.EqW(hole, b.ConstWord(op, word.Width(len(hole)))))
	}
	if len(seen) != 2 {
		t.Fatalf("expected exactly 2 reachable opcodes, saw %v", seen)
	}
}

// TestInstantiateWidths checks one sketch instantiates at several widths in
// the same builder without interference: a pass-through config must hold
// at every width simultaneously.
func TestInstantiateWidths(t *testing.T) {
	b := circuit.New()
	g := testGrid(1, 1, alu.Counter)
	s := newSketch(t, b, g, 1, 0, false)
	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	s.AssertDomains(cnf)
	// At widths 4 and 8, constrain out = in + 1 for two concrete inputs.
	for _, w := range []word.Width{4, 8} {
		for _, x := range []uint64{3, 9} {
			in := []circuit.Word{b.ConstWord(w.Trunc(x), w)}
			outF, _ := s.Instantiate(w, in, nil)
			cnf.Assert(b.EqW(outF[0], b.ConstWord(w.Trunc(x+1), w)))
		}
	}
	if solver.Solve() != sat.Sat {
		t.Fatal("increment constraints at two widths should be satisfiable")
	}
	cfg := s.Extract(cnf, []string{"x"}, nil, 8)
	out, _ := cfg.Exec(map[string]uint64{"x": 100}, nil)
	if out["x"] != 101 {
		t.Fatalf("config does not increment: %d", out["x"])
	}
}

func TestInstantiatePanicsOnArityMismatch(t *testing.T) {
	b := circuit.New()
	s := newSketch(t, b, testGrid(1, 2, alu.Counter), 2, 1, false)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong field count")
		}
	}()
	s.Instantiate(4, []circuit.Word{b.ConstWord(0, 4)}, nil)
}

// TestHoleInventory checks the inventory against an independent walk of
// NewHoles and that reading it allocates nothing.
func TestHoleInventory(t *testing.T) {
	g := GridSpec{Stages: 2, Width: 2, WordWidth: 4,
		StatefulALU: alu.Stateful{Kind: alu.Counter}}
	sk := newSketch(t, circuit.New(), g, 2, 1, false)
	var wantNames []string
	var wantBits []int
	NewHoles(g, false, 2, func(name string, bits int, _ bool) int {
		wantNames = append(wantNames, name)
		wantBits = append(wantBits, bits)
		return 0
	})
	names, bits := sk.HoleInventory()
	if !slices.Equal(names, wantNames) || !slices.Equal(bits, wantBits) {
		t.Fatalf("inventory %v %v, NewHoles made %v %v", names, bits, wantNames, wantBits)
	}
	if n := testing.AllocsPerRun(10, func() { sk.HoleInventory() }); n != 0 {
		t.Fatalf("HoleInventory allocates %.0f times", n)
	}
}
