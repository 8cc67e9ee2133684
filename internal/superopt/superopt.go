// Package superopt implements the paper's first future-work direction
// (§5.1, "Synthesizing Fast Processor Code"): a superoptimizing compiler
// for straight-line packet-processing code.
//
// Unlike a standard compiler that lowers an expression tree instruction by
// instruction, a superoptimizer searches the space of instruction sequences
// for a minimal program implementing the whole specification (Massalin
// 1987; the paper cites modern CEGIS-based successors that beat gcc -O3 on
// short sequences). The machine modeled here is a small single-core
// packet-processor ISA in static single assignment form: each instruction
// reads two earlier values (packet-header inputs or prior results, chosen
// by operand-selector holes) or an immediate, and produces one new value.
// The objective function is the paper's default — minimum instruction
// count — searched by iterative deepening over sequence length. The
// machine is a third backend.Backend (Backend), so each length is decided
// by the same CEGIS loop Chipmunk's pipeline synthesis runs.
//
// The classic demonstration is the paper's own Figure 1: the specification
// x*5 superoptimizes to the two-instruction sequence
//
//	v1 = shli v0, 2
//	v2 = add  v1, v0
//
// on a machine with no multiplier.
package superopt

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/cegis"
	"repro/internal/circuit"
	"repro/internal/word"
)

// Opcode enumerates the target ISA. All instructions are value -> value;
// shifts take their amount from the immediate field.
type Opcode int

// The ISA. MovImm materializes the immediate; Mux is a conditional move
// (a ? b : imm), matching what NPU microengines offer.
const (
	OpAdd    Opcode = iota // a + b
	OpSub                  // a - b
	OpAnd                  // a & b
	OpOr                   // a | b
	OpXor                  // a ^ b
	OpNot                  // ^a
	OpNeg                  // -a
	OpShlI                 // a << imm
	OpShrI                 // a >> imm
	OpAddI                 // a + imm
	OpSubI                 // a - imm
	OpEq                   // a == b
	OpLt                   // a < b (signed)
	OpMovImm               // imm
	OpMux                  // a != 0 ? b : imm

	numOpcodes
)

var opcodeNames = [numOpcodes]string{
	"add", "sub", "and", "or", "xor", "not", "neg", "shli", "shri",
	"addi", "subi", "eq", "lt", "movimm", "mux",
}

// String returns the mnemonic.
func (o Opcode) String() string {
	if o >= 0 && o < numOpcodes {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

const opcodeBits = 4

// Instr is one synthesized instruction. A and B index the value numbering:
// values 0..nInputs-1 are the packet-field inputs in Sequence.Inputs
// order, value nInputs+k is instruction k's result.
type Instr struct {
	Op   Opcode
	A, B int
	Imm  uint64
}

// Sequence is a superoptimized program: instructions plus, for every
// packet field, the value index holding its output. It implements
// backend.Config for the SSA machine (Backend).
type Sequence struct {
	// Inputs are the packet fields in value-numbering order (sorted, as
	// ast.Program.Variables reports them).
	Inputs []string
	Instrs []Instr
	// OutVals[i] is the value index (input or instruction result) that
	// carries field Inputs[i]'s output; OutVals[i] == i leaves the field
	// unchanged.
	OutVals []int
	// Width is the datapath width the sequence runs at.
	Width word.Width
}

// valueName names value v: an input field or an instruction result.
func (s *Sequence) valueName(v int) string {
	if v < len(s.Inputs) {
		return "%" + s.Inputs[v]
	}
	return fmt.Sprintf("v%d", v-len(s.Inputs)+1)
}

// render formats instruction idx of s with value names.
func (s *Sequence) render(idx int) string {
	ins, name := s.Instrs[idx], s.valueName
	dst := fmt.Sprintf("v%d", idx+1)
	switch ins.Op {
	case OpNot, OpNeg:
		return fmt.Sprintf("%s = %s %s", dst, ins.Op, name(ins.A))
	case OpShlI, OpShrI, OpAddI, OpSubI:
		return fmt.Sprintf("%s = %s %s, %d", dst, ins.Op, name(ins.A), ins.Imm)
	case OpMovImm:
		return fmt.Sprintf("%s = %s %d", dst, ins.Op, ins.Imm)
	case OpMux:
		return fmt.Sprintf("%s = %s %s, %s, %d", dst, ins.Op, name(ins.A), name(ins.B), ins.Imm)
	default:
		return fmt.Sprintf("%s = %s %s, %s", dst, ins.Op, name(ins.A), name(ins.B))
	}
}

// String renders assembly-like text. Fields the sequence leaves unchanged
// get no output route.
func (s *Sequence) String() string {
	var sb strings.Builder
	for i := range s.Instrs {
		fmt.Fprintf(&sb, "  %s\n", s.render(i))
	}
	for i, f := range s.Inputs {
		if v := s.OutVals[i]; v != i {
			fmt.Fprintf(&sb, "  %%%s <- %s\n", f, s.valueName(v))
		}
	}
	return sb.String()
}

// Target implements backend.Config.
func (s *Sequence) Target() string { return "superopt" }

// Vars implements backend.Config: the machine is stateless.
func (s *Sequence) Vars() (fields, states []string) { return s.Inputs, nil }

// RunWidth implements backend.Config.
func (s *Sequence) RunWidth() word.Width { return s.Width }

// WithRunWidth implements backend.Config.
func (s *Sequence) WithRunWidth(w word.Width) backend.Config {
	c := *s
	c.Width = w
	return &c
}

// Validate implements backend.Config: opcodes are in range, every operand
// reads an earlier value (SSA), and every field has an output route.
func (s *Sequence) Validate() error {
	if err := s.Width.Validate(); err != nil {
		return err
	}
	if len(s.OutVals) != len(s.Inputs) {
		return fmt.Errorf("superopt: %d output routes for %d fields", len(s.OutVals), len(s.Inputs))
	}
	for k, ins := range s.Instrs {
		n := len(s.Inputs) + k
		if ins.Op < 0 || ins.Op >= numOpcodes {
			return fmt.Errorf("superopt: instruction %d: opcode %d out of range", k+1, int(ins.Op))
		}
		if ins.A < 0 || ins.A >= n || ins.B < 0 || ins.B >= n {
			return fmt.Errorf("superopt: instruction %d reads value %d or %d, not defined before it", k+1, ins.A, ins.B)
		}
	}
	for i, v := range s.OutVals {
		if v < 0 || v >= len(s.Inputs)+len(s.Instrs) {
			return fmt.Errorf("superopt: field %s routed from undefined value %d", s.Inputs[i], v)
		}
	}
	return nil
}

// NewExecutor implements backend.Config: it runs the sequence over field
// values in Inputs order, without allocating.
func (s *Sequence) NewExecutor() func(fields, states []uint64) {
	w := s.Width
	var a arith.Arith[uint64] = arith.Conc{W: w}
	vals := make([]uint64, len(s.Inputs)+len(s.Instrs))
	return func(fields, _ []uint64) {
		for i := range s.Inputs {
			vals[i] = w.Trunc(fields[i])
		}
		for k, ins := range s.Instrs {
			vals[len(s.Inputs)+k] = evalInstr(a, ins.Op, vals[ins.A], vals[ins.B], w.Trunc(ins.Imm))
		}
		for i, v := range s.OutVals {
			fields[i] = vals[v]
		}
	}
}

// Exec implements backend.Config via the shared map adapter.
func (s *Sequence) Exec(pkt, state map[string]uint64) (outPkt, outState map[string]uint64) {
	return backend.Exec(s, pkt, state)
}

// Symbolic implements backend.Config: the sequence at width w over free
// field words, every hole lifted to a constant — the machine side of the
// CEGIS verification query.
func (s *Sequence) Symbolic(b *circuit.Builder, w word.Width, fields, _ []circuit.Word) (outFields, outStates []circuit.Word) {
	a := arith.Circ{B: b, W: w}
	vals := append([]circuit.Word{}, fields...)
	for _, ins := range s.Instrs {
		vals = append(vals, evalInstr[circuit.Word](a, ins.Op, vals[ins.A], vals[ins.B], b.ConstWord(ins.Imm, w)))
	}
	outFields = make([]circuit.Word, len(s.OutVals))
	for i, v := range s.OutVals {
		outFields[i] = vals[v]
	}
	return outFields, nil
}

// evalInstr is the single source of truth for instruction semantics,
// written over arith.Arith so the synthesizer and the executor agree.
func evalInstr[V any](a arith.Arith[V], op Opcode, x, y, imm V) V {
	switch op {
	case OpAdd:
		return a.Add(x, y)
	case OpSub:
		return a.Sub(x, y)
	case OpAnd:
		return a.BitAnd(x, y)
	case OpOr:
		return a.BitOr(x, y)
	case OpXor:
		return a.BitXor(x, y)
	case OpNot:
		return a.BitNot(x)
	case OpNeg:
		return a.Neg(x)
	case OpShlI:
		return a.Shl(x, imm)
	case OpShrI:
		return a.Shr(x, imm)
	case OpAddI:
		return a.Add(x, imm)
	case OpSubI:
		return a.Sub(x, imm)
	case OpEq:
		return a.Eq(x, y)
	case OpLt:
		return a.Lt(x, y)
	case OpMovImm:
		return imm
	case OpMux:
		return a.Mux(x, y, imm)
	default:
		panic("superopt: bad opcode")
	}
}

// selectVal builds a mux chain picking value #sel from vals.
func selectVal[V any](a arith.Arith[V], sel V, vals []V) V {
	acc := vals[len(vals)-1]
	for i := len(vals) - 2; i >= 0; i-- {
		acc = a.Mux(a.Eq(sel, a.ConstInt(int64(i))), vals[i], acc)
	}
	return acc
}

// Options tunes the superoptimizer.
type Options struct {
	// MaxInstrs bounds the iterative-deepening search. 0 means 4.
	MaxInstrs int
	// ImmBits is the immediate field width. 0 means 4.
	ImmBits int
	// SynthWidth and VerifyWidth mirror the CEGIS tiers. 0 means 4 / 10
	// (SynthWidth is clamped to the control-hole minimum internally).
	SynthWidth  word.Width
	VerifyWidth word.Width
	// MaxIters bounds CEGIS iterations per length. 0 means 64.
	MaxIters int
	// Seed drives initial test inputs.
	Seed int64
}

func (o *Options) maxInstrs() int {
	if o.MaxInstrs == 0 {
		return 4
	}
	return o.MaxInstrs
}

// Result reports a superoptimization run.
type Result struct {
	Feasible bool
	TimedOut bool
	Seq      *Sequence
	// Length is the minimal instruction count found.
	Length int
	// Probes records feasibility per attempted length.
	Probes  []int // lengths tried, in order
	Elapsed time.Duration
}

// Superoptimize finds a minimal instruction sequence implementing the
// program, which must be a pure packet transaction: field assignments only,
// no state (processor code here is stateless per-packet computation; the
// stateful story is Chipmunk's pipeline synthesis). Each length, from 0
// up, is one cegis.SynthesizeOn run on Backend.
func Superoptimize(ctx context.Context, prog *ast.Program, opts Options) (*Result, error) {
	start := time.Now()
	if len(prog.Variables().States) > 0 {
		return nil, fmt.Errorf("superopt: program uses switch state; superoptimization targets stateless packet code")
	}
	if !writesField(prog.Stmts) {
		return nil, fmt.Errorf("superopt: program writes no packet fields")
	}

	be := Backend{ImmBits: opts.ImmBits}
	copts := cegis.Options{SynthWidth: opts.SynthWidth, VerifyWidth: opts.VerifyWidth, MaxIters: opts.MaxIters, Seed: opts.Seed}
	res := &Result{}
	for n := 0; n <= opts.maxInstrs(); n++ {
		res.Probes = append(res.Probes, n)
		sr, err := cegis.SynthesizeOn(ctx, prog, be, n, copts)
		if err != nil {
			return nil, err
		}
		if sr.TimedOut {
			res.TimedOut = true
			break
		}
		if sr.Feasible {
			res.Feasible = true
			res.Seq = sr.TargetConfig.(*Sequence)
			res.Length = n
			break
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

// writesField reports whether any statement assigns a packet field.
func writesField(stmts []ast.Stmt) bool {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			if s.LHS.IsField {
				return true
			}
		case *ast.If:
			if writesField(s.Then) || writesField(s.Else) {
				return true
			}
		}
	}
	return false
}
