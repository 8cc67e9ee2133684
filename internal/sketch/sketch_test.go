package sketch

import (
	"testing"

	"repro/internal/alu"
	"repro/internal/circuit"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/word"
)

func grid(stages, width int, kind alu.Kind) pisa.GridSpec {
	return pisa.GridSpec{
		Stages:       stages,
		Width:        width,
		WordWidth:    10,
		StatelessALU: alu.Stateless{},
		StatefulALU:  alu.Stateful{Kind: kind},
	}
}

func TestNewRejectsOverCapacity(t *testing.T) {
	b := circuit.New()
	if _, err := New(b, grid(1, 2, alu.Counter), 3, 0, Options{}); err == nil {
		t.Fatal("3 fields into 2 containers should fail")
	}
	if _, err := New(b, grid(1, 2, alu.Counter), 1, 3, Options{}); err == nil {
		t.Fatal("3 states into 2 slots should fail")
	}
	if _, err := New(b, grid(0, 2, alu.Counter), 1, 1, Options{}); err == nil {
		t.Fatal("invalid grid should fail")
	}
	// Pair doubles state capacity.
	if _, err := New(b, grid(1, 2, alu.Pair), 1, 4, Options{}); err != nil {
		t.Fatalf("4 states fit 2 pair slots: %v", err)
	}
}

func TestHoleCountScalesWithGrid(t *testing.T) {
	b1 := circuit.New()
	s1, err := New(b1, grid(1, 2, alu.Counter), 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2 := circuit.New()
	s2, err := New(b2, grid(2, 2, alu.Counter), 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	h1, bits1 := s1.HoleCount()
	h2, bits2 := s2.HoleCount()
	if h2 != 2*h1 || bits2 != 2*bits1 {
		t.Fatalf("2 stages should double holes: %d/%d vs %d/%d", h1, bits1, h2, bits2)
	}
}

func TestIndicatorModeAddsHoles(t *testing.T) {
	bc := circuit.New()
	canon, err := New(bc, grid(1, 2, alu.Counter), 2, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bi := circuit.New()
	indic, err := New(bi, grid(1, 2, alu.Counter), 2, 0, Options{IndicatorAlloc: true})
	if err != nil {
		t.Fatal(err)
	}
	hc, _ := canon.HoleCount()
	hi, _ := indic.HoleCount()
	if hi != hc+4 { // 2 fields x 2 containers indicator bits
		t.Fatalf("indicator mode holes = %d, want %d", hi, hc+4)
	}
}

func TestMinWidth(t *testing.T) {
	b := circuit.New()
	s, err := New(b, grid(1, 2, alu.Counter), 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
		g := grid(2, 2, kind)
		s, err := New(b, g, 1, 1, Options{IndicatorAlloc: true})
		if err != nil {
			t.Fatal(err)
		}
		solver := sat.New()
		cnf := circuit.NewCNF(b, solver)
		s.AssertDomains(cnf)
		if solver.Solve() != sat.Sat {
			t.Fatalf("%s: domain constraints alone must be satisfiable", kind)
		}
		cfg := s.ExtractConfig(cnf, []string{"f"}, []string{"s"}, 10)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: extracted config violates constraints: %v", kind, err)
		}
	}
}

// TestOpcodeMaskAssertion checks that masked-out opcodes cannot appear in
// any model.
func TestOpcodeMaskAssertion(t *testing.T) {
	b := circuit.New()
	g := grid(1, 1, alu.Counter)
	g.StatelessALU.OpcodeMask = 1<<alu.SlOpAdd | 1<<alu.SlOpSub
	s, err := New(b, g, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	solver := sat.New()
	cnf := circuit.NewCNF(b, solver)
	s.AssertDomains(cnf)
	// Enumerate all models' opcodes by blocking: at most 2 distinct.
	seen := map[uint64]bool{}
	for i := 0; i < 20; i++ {
		if solver.Solve() != sat.Sat {
			break
		}
		cfg := s.ExtractConfig(cnf, []string{"f"}, nil, 10)
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
	g := grid(1, 1, alu.Counter)
	s, err := New(b, g, 1, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
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
	cfg := s.ExtractConfig(cnf, []string{"x"}, nil, 8)
	out, _ := cfg.Exec(map[string]uint64{"x": 100}, nil)
	if out["x"] != 101 {
		t.Fatalf("config does not increment: %d", out["x"])
	}
}

func TestInstantiatePanicsOnArityMismatch(t *testing.T) {
	b := circuit.New()
	s, err := New(b, grid(1, 2, alu.Counter), 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong field count")
		}
	}()
	s.Instantiate(4, []circuit.Word{b.ConstWord(0, 4)}, nil)
}

func TestHoleInventory(t *testing.T) {
	b := circuit.New()
	g := pisa.GridSpec{Stages: 2, Width: 2, WordWidth: 4,
		StatefulALU: alu.Stateful{Kind: alu.Counter}}
	sk, err := New(b, g, 2, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	names, bits := sk.HoleInventory()
	if len(names) == 0 || len(names) != len(bits) {
		t.Fatalf("inventory: %d names, %d bit entries", len(names), len(bits))
	}
	wantHoles, wantBits := sk.HoleCount()
	total := 0
	for _, n := range bits {
		total += n
	}
	if len(names) != wantHoles || total != wantBits {
		t.Fatalf("inventory sums (%d holes, %d bits) != HoleCount (%d, %d)",
			len(names), total, wantHoles, wantBits)
	}
}
