package pisa

import (
	"fmt"
	"sort"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/word"
)

// Backend implements backend.Backend for the PISA grid, making the paper's
// original target one implementation among several. Grid.Stages is
// ignored: the size axis of backend.Backend (what the core's deepening
// loop minimizes) supplies it per sketch.
type Backend struct {
	Grid GridSpec
	// IndicatorAlloc uses the indicator-variable field allocation instead
	// of the canonical one (Figure 4 ablation).
	IndicatorAlloc bool
	// SymmetryBreak adds solution-space-pruning constraints to
	// AssertDomains (tagged circuit.GroupSymmetry): don't-care pinning of
	// dead ALUs and lex-ordering of interchangeable stateful columns.
	// Verdict-preserving at every width (see assertSymmetry); off by
	// default so the standard path's clause stream is untouched.
	SymmetryBreak bool
}

// Target implements backend.Backend.
func (Backend) Target() string { return "pisa" }

// SymmetryBreaking implements backend.SymmetryBreaker: the PISA grid has
// interchangeable resources (dead ALUs, unused stateful columns) worth
// pruning.
func (p Backend) SymmetryBreaking() bool { return p.SymmetryBreak }

// gridAt resolves the grid for a concrete stage count.
func (p Backend) gridAt(size int) GridSpec {
	g := p.Grid
	g.Stages = size
	return g
}

// Check implements backend.Backend: grid validity is an error, capacity
// overflow (more fields than PHV containers, more states than stateful
// slots) a definitive infeasible. The grid's word width is substituted
// with a placeholder for validation — datapath widths are per-phase
// choices owned by the CEGIS loop, not the machine description.
func (p Backend) Check(size, numFields, numStates int) (bool, error) {
	g := p.gridAt(size)
	g.WordWidth = 1
	if err := g.Validate(); err != nil {
		return false, err
	}
	return numFields <= g.Width && numStates <= g.StateSlots(), nil
}

// NewSketch implements backend.Backend: it allocates one input word per
// hole of the grid at the given stage count.
func (p Backend) NewSketch(b *circuit.Builder, size, numFields, numStates int) (backend.Sketch, error) {
	fits, err := p.Check(size, numFields, numStates)
	if err != nil {
		return nil, err
	}
	g := p.gridAt(size)
	if !fits {
		return nil, fmt.Errorf("pisa: %d packet fields, %d state variables exceed %d PHV containers, %d stateful slots",
			numFields, numStates, g.Width, g.StateSlots())
	}
	s := &Sketch{Grid: g, B: b, NumFields: numFields, NumStates: numStates, symmetry: p.SymmetryBreak}
	s.holes = NewHoles[circuit.Word](g, p.IndicatorAlloc, numFields,
		func(name string, bits int, _ bool) circuit.Word {
			s.holeNames = append(s.holeNames, name)
			s.holeBits = append(s.holeBits, bits)
			return b.InputWord(name, word.Width(bits))
		})
	return s, nil
}

// Sketch is a symbolic PISA datapath with free holes: the hardware
// configurations of the paper's Table 1 (ALU opcodes, input/output mux
// controls, packet field and state variable allocations, immediate
// operands) as bit-vector words for the CEGIS engine to solve. It
// implements backend.Sketch.
//
// A Sketch owns one circuit.Builder and one input word per hole. The
// datapath can be instantiated any number of times at any datapath width
// against the same hole words: the synthesis phase instantiates it once
// per concrete test input (constant folding shrinks those copies), and
// because hole words are width-independent, counterexamples found at the
// wide verification width can be constrained in the same solver as the
// narrow synthesis inputs — the paper's "outer-loop CEGIS" (§3.1,
// Scaling).
type Sketch struct {
	// Grid is the machine at the sketch's stage count. Its WordWidth is
	// ignored; widths are chosen per instantiation.
	Grid GridSpec

	// B is the circuit builder holding holes and all instantiations.
	B *circuit.Builder

	// NumFields and NumStates are the program's variable counts after
	// canonicalization (states counted in variables, not slots).
	NumFields int
	NumStates int

	symmetry  bool
	holes     *Holes[circuit.Word] // words at natural hole width
	views     map[word.Width]*Holes[circuit.Word]
	holeNames []string // creation order
	holeBits  []int
}

// HoleInventory implements backend.Sketch: each hole's name and bit
// width in creation order. The slices are the sketch's own.
func (s *Sketch) HoleInventory() (names []string, bits []int) {
	return s.holeNames, s.holeBits
}

// MinWidth implements backend.Sketch: the width of the widest control
// hole (GridSpec.MinWidth). At narrower widths control encodings would
// truncate and alias (opcode 14 read as opcode 6), making the synthesis
// constraints inconsistent with wide-width verification. Data holes
// (immediates) may truncate freely — truncation commutes with the
// arithmetic they feed.
func (s *Sketch) MinWidth() word.Width { return s.Grid.MinWidth() }

// holesAt returns the hole structure with every word adjusted to width w.
// A CEGIS run instantiates at no more than two widths, so each view is
// built once and cached; Widen creates no gates, so caching leaves the
// circuit's numbering unchanged.
func (s *Sketch) holesAt(w word.Width) *Holes[circuit.Word] {
	if h, ok := s.views[w]; ok {
		return h
	}
	h := MapHoles(s.holes, func(hw circuit.Word) circuit.Word { return circuit.Widen(w, hw) })
	if s.views == nil {
		s.views = map[word.Width]*Holes[circuit.Word]{}
	}
	s.views[w] = h
	return h
}

// Instantiate implements backend.Sketch: run the symbolic datapath at
// width w over the given field and state words (each of width w). fields
// and states must have length NumFields and NumStates.
func (s *Sketch) Instantiate(w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word) {
	if len(fields) != s.NumFields || len(states) != s.NumStates {
		panic(fmt.Sprintf("pisa: instantiate with %d fields, %d states; want %d, %d",
			len(fields), len(states), s.NumFields, s.NumStates))
	}
	g := s.Grid
	g.WordWidth = w
	a := arith.Circ{B: s.B, W: w}
	return Datapath[circuit.Word](a, g, s.holesAt(w), fields, states)
}

// AssertDomains adds the hole-domain assertions to the CNF: opcode-mask
// membership, mux-range bounds, the exactly-one-stage allocation of state
// variables, and (in indicator mode) the partial-permutation constraints on
// the field allocation matrix. These are the paper's "allocation
// constraints ... expressed as SKETCH assertions" (§3.1).
func (s *Sketch) AssertDomains(cnf *circuit.CNF) {
	b := s.B
	g := s.Grid

	// Each category is tagged as a named constraint group; the tags are
	// no-ops unless the caller enabled blame tracking on the CNF
	// (circuit.EnableGroups), in which case an UNSAT core can name the
	// binding domain constraint.
	defer cnf.SetGroup("")

	// Opcode mask: each stateless opcode hole must name an allowed opcode.
	cnf.SetGroup(circuit.GroupOpcodeMask)
	mask := g.StatelessALU.EffectiveOpcodeMask()
	if mask != alu.FullOpcodeMask {
		for i := range s.holes.Stateless {
			for j := range s.holes.Stateless[i] {
				op := s.holes.Stateless[i][j]["opcode"]
				allowed := circuit.False
				for v := 0; v < alu.NumStatelessOpcodes; v++ {
					if mask&(1<<uint(v)) == 0 {
						continue
					}
					allowed = b.Or(allowed, b.EqW(op, b.ConstWord(uint64(v), word.Width(len(op)))))
				}
				cnf.Assert(allowed)
			}
		}
	}

	// Mux ranges (only needed when the option count is not a power of 2).
	cnf.SetGroup(circuit.GroupMuxRange)
	assertLess := func(hw circuit.Word, n int) {
		if n >= 1<<uint(len(hw)) {
			return
		}
		cnf.Assert(b.UltW(hw, b.ConstWord(uint64(n), word.Width(len(hw)))))
	}
	for i := range s.holes.Stateless {
		for j := range s.holes.Stateless[i] {
			assertLess(s.holes.Stateless[i][j]["imux1"], g.Width)
			assertLess(s.holes.Stateless[i][j]["imux2"], g.Width)
			for k := 0; k < g.StatefulALU.NumPacketOperands(); k++ {
				assertLess(s.holes.Stateful[i][j][fmt.Sprintf("imux%d", k)], g.Width)
			}
			assertLess(s.holes.OMux[i][j], g.Width+1)
			if g.StatefulALU.Kind == alu.Pair {
				// Pair's out_sel has 6 meaningful values in 3 bits.
				assertLess(s.holes.Stateful[i][j]["out_sel"], 6)
			}
		}
	}

	// State allocation: used slots are active in exactly one stage, unused
	// slots never (the appendix's salu_active assertions).
	cnf.SetGroup(circuit.GroupStateAlloc)
	ns := g.StatefulALU.NumStates()
	usedSlots := (s.NumStates + ns - 1) / ns
	cw := word.Width(MuxBits(g.Stages) + 1)
	for j := 0; j < g.Width; j++ {
		if j >= usedSlots {
			for i := 0; i < g.Stages; i++ {
				cnf.AssertNot(s.holes.SaluActive[i][j][0])
			}
			continue
		}
		sum := b.ConstWord(0, cw)
		for i := 0; i < g.Stages; i++ {
			sum = b.AddW(sum, circuit.Widen(cw, s.holes.SaluActive[i][j]))
		}
		cnf.Assert(b.EqW(sum, b.ConstWord(1, cw)))
	}

	// Indicator allocation: each field in exactly one container, each
	// container holding at most one field.
	cnf.SetGroup(circuit.GroupFieldAlloc)
	if s.holes.FieldAlloc != nil {
		cw := word.Width(MuxBits(g.Width) + 1)
		for f := range s.holes.FieldAlloc {
			sum := b.ConstWord(0, cw)
			for c := range s.holes.FieldAlloc[f] {
				sum = b.AddW(sum, circuit.Widen(cw, s.holes.FieldAlloc[f][c]))
			}
			cnf.Assert(b.EqW(sum, b.ConstWord(1, cw)))
		}
		for c := 0; c < g.Width; c++ {
			sum := b.ConstWord(0, cw)
			for f := range s.holes.FieldAlloc {
				sum = b.AddW(sum, circuit.Widen(cw, s.holes.FieldAlloc[f][c]))
			}
			cnf.Assert(b.UltW(sum, b.ConstWord(2, cw)))
		}
	}

	if s.symmetry {
		cnf.SetGroup(circuit.GroupSymmetry)
		s.assertSymmetry(cnf)
	}
}

// assertSymmetry prunes grid symmetries from the hole space. Every
// constraint here is verdict-preserving at every datapath width: for any
// hole assignment there is a semantically identical one (same
// input/output function, obtained by zeroing dead ALUs and permuting
// interchangeable columns together with the output-mux values that
// reference them) that satisfies all of them jointly, so feasibility is
// unchanged — only the number of equivalent candidates the solver can
// propose shrinks. Three families:
//
//  1. Dead stateless ALUs are pinned. Container j's stateless output
//     dest[j] is read only when omux_j selects index Width (any smaller
//     value selects a stateful output instead), so under omux_j < Width
//     the ALU's holes are forced to a canonical value: the lowest allowed
//     opcode and zeros elsewhere.
//  2. Dead stateful ALUs are pinned to zero. Slot j's output in stage i
//     is read only by an omux selecting index j, and its state register
//     is touched only when salu_active is set; when neither holds the
//     ALU's holes are forced to zero (zero satisfies every stateful
//     domain constraint).
//  3. Unused stateful columns are sorted. Slots j >= usedSlots carry no
//     state variable, so within one stage any permutation of their hole
//     columns (with omux values remapped to follow) is equivalent;
//     adjacent columns are ordered by unsigned comparison of their
//     concatenated hole words. Jointly consistent with (2): zeroed dead
//     columns are the unsigned minimum, so sorting can always place them
//     first.
func (s *Sketch) assertSymmetry(cnf *circuit.CNF) {
	b := s.B
	g := s.Grid

	slKeys := sortedKeys(s.holes.Stateless[0][0])
	sfKeys := sortedKeys(s.holes.Stateful[0][0])

	mask := g.StatelessALU.EffectiveOpcodeMask()
	minOp := uint64(0)
	for v := 0; v < alu.NumStatelessOpcodes; v++ {
		if mask&(1<<uint(v)) != 0 {
			minOp = uint64(v)
			break
		}
	}

	pin := func(cond circuit.Bit, hw circuit.Word, val uint64) {
		cnf.Assert(b.Implies(cond, b.EqW(hw, b.ConstWord(val, word.Width(len(hw))))))
	}

	for i := 0; i < g.Stages; i++ {
		for j := 0; j < g.Width; j++ {
			omux := s.holes.OMux[i][j]
			deadSl := b.UltW(omux, b.ConstWord(uint64(g.Width), word.Width(len(omux))))
			for _, k := range slKeys {
				v := uint64(0)
				if k == "opcode" {
					v = minOp
				}
				pin(deadSl, s.holes.Stateless[i][j][k], v)
			}

			unread := circuit.True
			for c := 0; c < g.Width; c++ {
				om := s.holes.OMux[i][c]
				unread = b.And(unread, b.Not(b.EqW(om, b.ConstWord(uint64(j), word.Width(len(om))))))
			}
			deadSf := b.And(unread, b.Not(s.holes.SaluActive[i][j][0]))
			for _, k := range sfKeys {
				pin(deadSf, s.holes.Stateful[i][j][k], 0)
			}
		}
	}

	ns := g.StatefulALU.NumStates()
	usedSlots := (s.NumStates + ns - 1) / ns
	for i := 0; i < g.Stages; i++ {
		for j := usedSlots; j+1 < g.Width; j++ {
			lo := s.statefulColumn(i, j, sfKeys)
			hi := s.statefulColumn(i, j+1, sfKeys)
			cnf.AssertNot(b.UltW(hi, lo))
		}
	}
}

// statefulColumn concatenates slot j's stateful hole words in stage i
// into one word, in the given deterministic key order, for the symmetry
// lex comparison.
func (s *Sketch) statefulColumn(i, j int, keys []string) circuit.Word {
	var col circuit.Word
	for _, k := range keys {
		col = append(col, s.holes.Stateful[i][j][k]...)
	}
	return col
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Extract implements backend.Sketch: read every hole's value from the
// solver model (via the CNF) and assemble a concrete *Config. fields and
// states are the canonical variable-name orders; runWidth is the datapath
// width recorded for subsequent simulation.
func (s *Sketch) Extract(cnf *circuit.CNF, fields, states []string, runWidth word.Width) backend.Config {
	vals := MapHoles(s.holes, func(hw circuit.Word) uint64 { return cnf.WordValue(hw) })
	grid := s.Grid
	grid.WordWidth = runWidth
	return &Config{Grid: grid, Fields: fields, States: states, Values: vals}
}
