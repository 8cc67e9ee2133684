// Package sketch turns a PISA grid specification into a SKETCH-style
// partial program: a symbolic datapath whose hardware configurations
// (Table 1 of the paper — ALU opcodes, input/output mux controls, packet
// field and state variable allocations, immediate operands) are free
// bit-vector holes for the CEGIS engine to solve.
//
// A Sketch owns one circuit.Builder and one input word per hole. The
// datapath can be instantiated any number of times at any datapath width
// against the same hole words: the synthesis phase instantiates it once per
// concrete test input (constant folding shrinks those copies), and because
// hole words are width-independent, counterexamples found at the wide
// verification width can be constrained in the same solver as the narrow
// synthesis inputs — the paper's "outer-loop CEGIS" (§3.1, Scaling).
//
// The package implements both packet-field allocation modes of §3.1:
// canonical allocation (field k lives in container k; Figure 4 shows this
// loses no expressiveness on homogeneous grids) and indicator-variable
// allocation (a free 0/1 matrix with permutation assertions), kept for the
// ablation benchmarks.
package sketch

import (
	"fmt"
	"sort"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/circuit"
	"repro/internal/pisa"
	"repro/internal/word"
)

// Options selects sketch-construction variants.
type Options struct {
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

// Sketch is a symbolic PISA datapath with free holes.
type Sketch struct {
	Grid pisa.GridSpec
	Opts Options

	// B is the circuit builder holding holes and all instantiations.
	B *circuit.Builder

	// NumFields and NumStates are the program's variable counts after
	// canonicalization (states counted in variables, not slots).
	NumFields int
	NumStates int

	holes     *pisa.Holes[circuit.Word] // words at natural hole width
	views     map[word.Width]*pisa.Holes[circuit.Word]
	holeBits  map[string]int
	holeNames []string // deterministic order
}

// New builds a sketch for the grid and program shape. The grid's WordWidth
// field is ignored here; widths are chosen per instantiation.
func New(b *circuit.Builder, grid pisa.GridSpec, numFields, numStates int, opts Options) (*Sketch, error) {
	if err := grid.Validate(); err != nil {
		return nil, err
	}
	if numFields > grid.Width {
		return nil, fmt.Errorf("sketch: %d packet fields exceed %d PHV containers (paper §3.1: one field per container)", numFields, grid.Width)
	}
	if numStates > grid.StateSlots() {
		return nil, fmt.Errorf("sketch: %d state variables exceed %d stateful slots", numStates, grid.StateSlots())
	}
	s := &Sketch{
		Grid:      grid,
		Opts:      opts,
		B:         b,
		NumFields: numFields,
		NumStates: numStates,
		holeBits:  map[string]int{},
	}
	s.holes = pisa.NewHoles[circuit.Word](grid, opts.IndicatorAlloc, numFields,
		func(name string, bits int, _ bool) circuit.Word {
			s.holeBits[name] = bits
			s.holeNames = append(s.holeNames, name)
			return b.InputWord(name, word.Width(bits))
		})
	return s, nil
}

// HoleCount returns the number of holes and their total bit count — the m
// of Equation 1, reported by the evaluation harness as search-space size.
func (s *Sketch) HoleCount() (holes, bits int) {
	for _, b := range s.holeBits {
		bits += b
	}
	return len(s.holeBits), bits
}

// HoleInventory returns each hole's name and bit width in deterministic
// (creation) order — the full search-space breakdown behind HoleCount.
func (s *Sketch) HoleInventory() (names []string, bits []int) {
	names = append([]string{}, s.holeNames...)
	bits = make([]int, len(names))
	for i, n := range names {
		bits[i] = s.holeBits[n]
	}
	return names, bits
}

// MinWidth is the narrowest datapath width at which the sketch may be
// instantiated soundly: the width of the widest *control* hole
// (pisa.GridSpec.MinWidth). At narrower widths control encodings would
// truncate and alias (opcode 14 read as opcode 6), making the synthesis
// constraints inconsistent with wide-width verification. Data holes
// (immediates) may truncate freely — truncation commutes with the
// arithmetic they feed.
func (s *Sketch) MinWidth() word.Width { return s.Grid.MinWidth() }

// holesAt returns the hole structure with every word adjusted to width w.
// A CEGIS run instantiates at no more than two widths, so each view is
// built once and cached; Widen creates no gates, so caching leaves the
// circuit's numbering unchanged.
func (s *Sketch) holesAt(w word.Width) *pisa.Holes[circuit.Word] {
	if h, ok := s.views[w]; ok {
		return h
	}
	h := pisa.MapHoles(s.holes, func(hw circuit.Word) circuit.Word { return circuit.Widen(w, hw) })
	if s.views == nil {
		s.views = map[word.Width]*pisa.Holes[circuit.Word]{}
	}
	s.views[w] = h
	return h
}

// Instantiate runs the symbolic datapath at width w over the given field
// and state words (each of width w), returning the output words. fields
// and states must have length NumFields and NumStates.
func (s *Sketch) Instantiate(w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word) {
	if len(fields) != s.NumFields || len(states) != s.NumStates {
		panic(fmt.Sprintf("sketch: instantiate with %d fields, %d states; want %d, %d",
			len(fields), len(states), s.NumFields, s.NumStates))
	}
	g := s.Grid
	g.WordWidth = w
	a := arith.Circ{B: s.B, W: w}
	return pisa.Datapath[circuit.Word](a, g, s.holesAt(w), fields, states)
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
	cw := word.Width(pisa.MuxBits(g.Stages) + 1)
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
		cw := word.Width(pisa.MuxBits(g.Width) + 1)
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

	if s.Opts.SymmetryBreak {
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

// ExtractConfig reads every hole's value from the solver model (via the
// CNF) and assembles a concrete configuration. fields and states are the
// canonical variable-name orders; runWidth is the datapath width recorded
// for subsequent simulation.
func (s *Sketch) ExtractConfig(cnf *circuit.CNF, fields, states []string, runWidth word.Width) *pisa.Config {
	vals := pisa.MapHoles(s.holes, func(hw circuit.Word) uint64 { return cnf.WordValue(hw) })
	grid := s.Grid
	grid.WordWidth = runWidth
	return &pisa.Config{Grid: grid, Fields: fields, States: states, Values: vals}
}
