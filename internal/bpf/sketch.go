package bpf

import (
	"fmt"

	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/word"
)

// Backend implements backend.Backend for the register machine. The
// zero value is a usable default spec (registers derived from the
// program, 4-bit immediates once DefaultConstBits is applied by the
// caller). Spec.Slots is ignored: the size axis comes from the CEGIS
// core's deepening loop.
type Backend struct {
	Spec MachineSpec
}

// Target implements backend.Backend.
func (Backend) Target() string { return "bpf" }

// specAt resolves the spec for a concrete program size and field count.
func (bk Backend) specAt(size, numFields int) MachineSpec {
	sp := bk.Spec
	sp.Slots = size
	sp.Regs = sp.RegsFor(numFields)
	if sp.ConstBits == 0 {
		sp.ConstBits = 4
	}
	return sp
}

// Check implements backend.Backend: a false report is a definitive
// capacity infeasibility (more fields than registers), an error an
// invalid machine description.
func (bk Backend) Check(size, numFields, numStates int) (bool, error) {
	sp := bk.specAt(size, numFields)
	if size < 1 {
		return false, fmt.Errorf("bpf: slot count %d must be >= 1", size)
	}
	if sp.ConstBits < 1 || sp.ConstBits > 16 {
		return false, fmt.Errorf("bpf: const bits %d out of range [1,16]", sp.ConstBits)
	}
	if sp.EffectiveOpcodeMask() == 0 {
		return false, fmt.Errorf("bpf: opcode mask allows no opcodes")
	}
	if numFields > sp.Regs {
		return false, nil
	}
	return true, nil
}

// NewSketch implements backend.Backend.
func (bk Backend) NewSketch(b *circuit.Builder, size, numFields, numStates int) (backend.Sketch, error) {
	fits, err := bk.Check(size, numFields, numStates)
	if err != nil {
		return nil, err
	}
	if !fits {
		sp := bk.specAt(size, numFields)
		return nil, fmt.Errorf("bpf: %d packet fields exceed %d registers", numFields, sp.Regs)
	}
	return NewSketch(b, bk.specAt(size, numFields), numFields, numStates), nil
}

// Sketch is the symbolic register machine: one hole word per slot
// selector, owned by a single circuit.Builder. It implements
// backend.Sketch.
type Sketch struct {
	Spec      MachineSpec
	B         *circuit.Builder
	NumFields int
	NumStates int

	holes     *Holes[circuit.Word]
	views     map[word.Width]*Holes[circuit.Word]
	holeNames []string
	holeBits  []int
	minWidth  word.Width
}

// NewSketch allocates the hole words for a machine of the given spec
// (Slots and Regs resolved) and program shape.
func NewSketch(b *circuit.Builder, spec MachineSpec, numFields, numStates int) *Sketch {
	s := &Sketch{Spec: spec, B: b, NumFields: numFields, NumStates: numStates}
	minWidth := 1
	s.holes = NewHoles(spec.Slots, spec.Regs, numStates, spec.ConstBits,
		func(name string, bits int, data bool) circuit.Word {
			s.holeNames = append(s.holeNames, name)
			s.holeBits = append(s.holeBits, bits)
			if !data && bits > minWidth {
				minWidth = bits
			}
			return b.InputWord(name, word.Width(bits))
		})
	s.minWidth = word.Width(minWidth)
	return s
}

// HoleCount implements backend.Sketch.
func (s *Sketch) HoleCount() (holes, bits int) {
	for _, b := range s.holeBits {
		bits += b
	}
	return len(s.holeNames), bits
}

// HoleInventory implements backend.Sketch: names and widths in creation
// (slot-major) order.
func (s *Sketch) HoleInventory() (names []string, bits []int) {
	return append([]string(nil), s.holeNames...), append([]int(nil), s.holeBits...)
}

// MinWidth implements backend.Sketch: the widest control hole (the
// 5-bit opcode selector dominates unless the register file or state map
// needs more selector bits).
func (s *Sketch) MinWidth() word.Width { return s.minWidth }

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

// Instantiate implements backend.Sketch: run the symbolic machine at
// width w over the given field and state words.
func (s *Sketch) Instantiate(w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word) {
	if len(fields) != s.NumFields || len(states) != s.NumStates {
		panic(fmt.Sprintf("bpf: instantiate with %d fields, %d states; want %d, %d",
			len(fields), len(states), s.NumFields, s.NumStates))
	}
	a := arith.Circ{B: s.B, W: w}
	return Program[circuit.Word](a, s.Spec.Regs, s.holesAt(w), fields, states)
}

// AssertDomains implements backend.Sketch: every opcode selector names
// an allowed opcode (map ops excluded for stateless programs), and
// every register/cell selector is in range. Immediates are data and
// stay free.
func (s *Sketch) AssertDomains(cnf *circuit.CNF) {
	b := s.B
	mask := s.Spec.EffectiveOpcodeMask()
	if s.NumStates == 0 {
		mask &^= 1<<uint(OpLdMap) | 1<<uint(OpStMap)
	}
	assertLess := func(hw circuit.Word, n int) {
		if n >= 1<<uint(len(hw)) {
			return
		}
		cnf.Assert(b.UltW(hw, b.ConstWord(uint64(n), word.Width(len(hw)))))
	}
	maxCell := s.NumStates
	if maxCell < 1 {
		maxCell = 1
	}
	// Tagged as named constraint groups for blame tracking; the tags are
	// no-ops unless the caller called circuit.EnableGroups on the CNF.
	defer cnf.SetGroup("")
	for i := 0; i < s.Spec.Slots; i++ {
		op := s.holes.Op[i]
		allowed := circuit.False
		for v := 0; v < NumOpcodes; v++ {
			if mask&(1<<uint(v)) == 0 {
				continue
			}
			allowed = b.Or(allowed, b.EqW(op, b.ConstWord(uint64(v), word.Width(len(op)))))
		}
		cnf.SetGroup(circuit.GroupOpcodeMask)
		cnf.Assert(allowed)
		cnf.SetGroup(circuit.GroupMuxRange)
		assertLess(s.holes.Dst[i], s.Spec.Regs)
		assertLess(s.holes.Src[i], s.Spec.Regs)
		cnf.SetGroup(circuit.GroupStateAlloc)
		assertLess(s.holes.Cell[i], maxCell)
	}
}

// Extract implements backend.Sketch: read every hole's value from the
// solver model and decode the instruction stream.
func (s *Sketch) Extract(cnf *circuit.CNF, fields, states []string, runWidth word.Width) backend.Config {
	return s.ExtractConfig(cnf, fields, states, runWidth)
}

// ExtractConfig is Extract with a concrete return type.
func (s *Sketch) ExtractConfig(cnf *circuit.CNF, fields, states []string, runWidth word.Width) *Config {
	vals := MapHoles(s.holes, cnf.WordValue)
	sp := s.Spec
	sp.WordWidth = runWidth
	cfg := &Config{
		Spec:   sp,
		Fields: append([]string(nil), fields...),
		States: append([]string(nil), states...),
		Instrs: make([]Instr, sp.Slots),
	}
	for i := 0; i < sp.Slots; i++ {
		cfg.Instrs[i] = Instr{
			Op:   Opcode(vals.Op[i]),
			Dst:  int(vals.Dst[i]),
			Src:  int(vals.Src[i]),
			Imm:  vals.Imm[i],
			Cell: int(vals.Cell[i]),
		}
	}
	return cfg
}

// Symbolic implements backend.Config: re-encode the configured machine
// at width w with every hole lifted to a constant — the pipeline side
// of the CEGIS verification query.
func (c *Config) Symbolic(b *circuit.Builder, w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word) {
	a := arith.Circ{B: b, W: w}
	h := MapHoles(c.holesAt(w), func(v uint64) circuit.Word { return b.ConstWord(v, w) })
	return Program[circuit.Word](a, c.Spec.RegsFor(len(c.Fields)), h, fields, states)
}
