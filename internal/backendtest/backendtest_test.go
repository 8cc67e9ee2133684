package backendtest

import (
	"testing"

	"repro/internal/alu"
	"repro/internal/bpf"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/superopt"
)

// conformanceFixture is marple_new_flow: the cheapest stateful corpus
// program, feasible on both targets at small sizes (1 pipeline stage,
// 5 register slots).
func fixture(t *testing.T) (prog *programs.Benchmark, constBits int) {
	t.Helper()
	b, err := programs.ByName("marple_new_flow")
	if err != nil {
		t.Fatal(err)
	}
	return &b, b.ConstBits
}

func TestPISAConformance(t *testing.T) {
	b, constBits := fixture(t)
	be := pisa.Backend{
		Grid: pisa.GridSpec{
			Width:        b.Width,
			WordWidth:    10, // placeholder; CEGIS manages widths
			StatelessALU: alu.Stateless{ConstBits: constBits},
			StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: constBits},
		},
	}
	Run(t, be, b.Parse(), 1, 7)
}

func TestBPFConformance(t *testing.T) {
	b, constBits := fixture(t)
	be := bpf.Backend{Spec: bpf.MachineSpec{ConstBits: constBits}}
	Run(t, be, b.Parse(), 5, 1)
}

// TestSuperoptConformance runs the battery against the §5.1 SSA machine
// on the paper's Figure 1 specification, which needs two instructions.
// The machine is stateless, so the corpus fixture does not fit it.
func TestSuperoptConformance(t *testing.T) {
	Run(t, superopt.Backend{}, parser.MustParse("x5", "pkt.y = pkt.x * 5;"), 2, 1)
}

// TestPISASymmetryConformance runs the full battery against the grid
// backend with symmetry breaking opted in: the pruned encoding must
// still synthesize a correct config, and checkSymmetrySeam flips to
// requiring the symmetry group's presence.
func TestPISASymmetryConformance(t *testing.T) {
	b, constBits := fixture(t)
	be := pisa.Backend{
		Grid: pisa.GridSpec{
			Width:        b.Width,
			WordWidth:    10,
			StatelessALU: alu.Stateless{ConstBits: constBits},
			StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: constBits},
		},
		SymmetryBreak: true,
	}
	Run(t, be, b.Parse(), 1, 7)
}

// The infeasible fixtures drive the forensics half of the battery:
// marple_reorder needs two pipeline stages on the grid, and
// marple_new_flow needs five register slots — one size below each is the
// cheapest proven-infeasible problem per target.
func TestPISAInfeasibleConformance(t *testing.T) {
	b, err := programs.ByName("marple_reorder")
	if err != nil {
		t.Fatal(err)
	}
	be := pisa.Backend{
		Grid: pisa.GridSpec{
			Width:        b.Width,
			WordWidth:    10,
			StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
			StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		},
	}
	RunInfeasible(t, be, b.Parse(), 1, 7)
}

func TestBPFInfeasibleConformance(t *testing.T) {
	b, constBits := fixture(t)
	be := bpf.Backend{Spec: bpf.MachineSpec{ConstBits: constBits}}
	RunInfeasible(t, be, b.Parse(), 3, 1)
}

// TestSuperoptInfeasibleConformance: a general multiply does not fit two
// instructions of a machine without a multiplier.
func TestSuperoptInfeasibleConformance(t *testing.T) {
	RunInfeasible(t, superopt.Backend{}, parser.MustParse("xy", "pkt.r = pkt.x * pkt.y;"), 2, 1)
}
