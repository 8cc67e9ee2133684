package superopt

import (
	"fmt"

	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/pisa"
	"repro/internal/word"
)

// Backend implements backend.Backend for the SSA instruction machine. Its
// size axis is the sequence length, and it has no state: a program with
// state variables does not fit. The zero value uses 4-bit immediates.
type Backend struct {
	// ImmBits is the immediate field width. 0 means 4.
	ImmBits int
}

func (bk Backend) immBits() int {
	if bk.ImmBits == 0 {
		return 4
	}
	return bk.ImmBits
}

// Target implements backend.Backend.
func (Backend) Target() string { return "superopt" }

// Check implements backend.Backend: a program with state variables is a
// definitive capacity infeasibility (the machine has no state), a negative
// length or immediate width an invalid machine description.
func (bk Backend) Check(size, numFields, numStates int) (bool, error) {
	if size < 0 {
		return false, fmt.Errorf("superopt: sequence length %d must be >= 0", size)
	}
	if bk.immBits() < 1 {
		return false, fmt.Errorf("superopt: immediate width %d must be >= 1", bk.ImmBits)
	}
	return numStates == 0, nil
}

// slotHoles are one instruction slot's synthesis holes.
type slotHoles struct {
	op, a, bSel, imm circuit.Word
}

// Sketch is the symbolic SSA machine: per slot an opcode, two operand
// selectors and an immediate, plus one output selector per packet field.
// It implements backend.Sketch.
type Sketch struct {
	b        *circuit.Builder
	nf       int
	slots    []slotHoles
	outSel   []circuit.Word
	names    []string
	bits     []int
	minWidth word.Width
}

// NewSketch implements backend.Backend.
func (bk Backend) NewSketch(b *circuit.Builder, size, numFields, numStates int) (backend.Sketch, error) {
	fits, err := bk.Check(size, numFields, numStates)
	if err != nil {
		return nil, err
	}
	if !fits {
		return nil, fmt.Errorf("superopt: the instruction machine has no state for %d state variables", numStates)
	}
	s := &Sketch{b: b, nf: numFields}
	hole := func(name string, bits int) circuit.Word {
		s.names = append(s.names, name)
		s.bits = append(s.bits, bits)
		return b.InputWord(name, word.Width(bits))
	}
	// Selectors index the value numbering: inputs, then slot results.
	selBits := pisa.MuxBits(numFields + size)
	s.slots = make([]slotHoles, size)
	for k := range s.slots {
		s.slots[k] = slotHoles{
			op:   hole(fmt.Sprintf("op%d", k), opcodeBits),
			a:    hole(fmt.Sprintf("a%d", k), selBits),
			bSel: hole(fmt.Sprintf("b%d", k), selBits),
			imm:  hole(fmt.Sprintf("imm%d", k), bk.immBits()),
		}
	}
	s.outSel = make([]circuit.Word, numFields)
	for i := range s.outSel {
		s.outSel[i] = hole(fmt.Sprintf("out%d", i), selBits)
	}
	s.minWidth = word.Width(max(opcodeBits, selBits))
	return s, nil
}

// HoleInventory implements backend.Sketch: names and widths in creation
// (slot-major, then output selector) order. The slices are the sketch's
// own.
func (s *Sketch) HoleInventory() (names []string, bits []int) {
	return s.names, s.bits
}

// MinWidth implements backend.Sketch: the opcode and selector holes must
// not truncate; immediates are data and may.
func (s *Sketch) MinWidth() word.Width { return s.minWidth }

// Instantiate implements backend.Sketch: every slot computes all opcodes
// over its selected operands and muxes by the opcode hole.
func (s *Sketch) Instantiate(w word.Width, fields, _ []circuit.Word) (outFields, outStates []circuit.Word) {
	a := arith.Circ{B: s.b, W: w}
	vals := append([]circuit.Word{}, fields...)
	choices := make([]circuit.Word, numOpcodes)
	for _, sl := range s.slots {
		x := selectVal[circuit.Word](a, circuit.Widen(w, sl.a), vals)
		y := selectVal[circuit.Word](a, circuit.Widen(w, sl.bSel), vals)
		imm := circuit.Widen(w, sl.imm)
		for o := range choices {
			choices[o] = evalInstr[circuit.Word](a, Opcode(o), x, y, imm)
		}
		vals = append(vals, selectVal[circuit.Word](a, circuit.Widen(w, sl.op), choices))
	}
	outFields = make([]circuit.Word, len(s.outSel))
	for i, o := range s.outSel {
		outFields[i] = selectVal[circuit.Word](a, circuit.Widen(w, o), vals)
	}
	return outFields, nil
}

// AssertDomains implements backend.Sketch: opcodes are in range and every
// selector names an existing value, operands an earlier one (SSA).
// Immediates are data and stay free.
func (s *Sketch) AssertDomains(cnf *circuit.CNF) {
	b := s.b
	assertLess := func(hw circuit.Word, m int) {
		if m < 1<<uint(len(hw)) {
			cnf.Assert(b.UltW(hw, b.ConstWord(uint64(m), word.Width(len(hw)))))
		}
	}
	// Tagged as named constraint groups for blame tracking; the tags are
	// no-ops unless the caller called circuit.EnableGroups on the CNF.
	defer cnf.SetGroup("")
	for k, sl := range s.slots {
		cnf.SetGroup(circuit.GroupOpcodeMask)
		assertLess(sl.op, int(numOpcodes))
		cnf.SetGroup(circuit.GroupMuxRange)
		assertLess(sl.a, s.nf+k)
		assertLess(sl.bSel, s.nf+k)
	}
	cnf.SetGroup(circuit.GroupMuxRange)
	for _, o := range s.outSel {
		assertLess(o, s.nf+len(s.slots))
	}
}

// Extract implements backend.Sketch: decode the sequence from the solver
// model.
func (s *Sketch) Extract(cnf *circuit.CNF, fields, _ []string, runWidth word.Width) backend.Config {
	seq := &Sequence{Inputs: append([]string(nil), fields...), Width: runWidth}
	for _, sl := range s.slots {
		seq.Instrs = append(seq.Instrs, Instr{
			Op:  Opcode(cnf.WordValue(sl.op)),
			A:   int(cnf.WordValue(sl.a)),
			B:   int(cnf.WordValue(sl.bSel)),
			Imm: cnf.WordValue(sl.imm),
		})
	}
	for _, o := range s.outSel {
		seq.OutVals = append(seq.OutVals, int(cnf.WordValue(o)))
	}
	return seq
}
