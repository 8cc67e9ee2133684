package linerate

import "fmt"

var opNames = [numOpcodes]string{
	opAdd: "add", opSub: "sub", opMul: "mul", opAnd: "and", opOr: "or", opXor: "xor",
	opShl: "shl", opShr: "shr", opEq: "eq", opNe: "ne", opLt: "lt", opLe: "le",
	opGt: "gt", opGe: "ge", opLAnd: "land", opLOr: "lor", opNot: "not", opNeg: "neg",
	opLNot: "lnot", opMux: "mux",
}

// Listing disassembles an engine's register program, one line per
// instruction, then its constants, loads and stores, so tests can pin and
// compare programs.
func Listing(e *Engine) []string {
	var out []string
	for _, in := range e.prog {
		line := fmt.Sprintf("r%d = %s r%d", in.dst, opNames[in.op], in.a)
		if in.b >= 0 {
			line += fmt.Sprintf(", r%d", in.b)
		}
		if in.c >= 0 {
			line += fmt.Sprintf(", r%d", in.c)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("consts %v", e.consts))
	for _, l := range e.fieldIn {
		out = append(out, fmt.Sprintf("r%d <- field %d", l.dst, l.src))
	}
	for _, l := range e.stateIn {
		out = append(out, fmt.Sprintf("r%d <- state %d", l.dst, l.src))
	}
	out = append(out, fmt.Sprintf("fields <- %v", e.fieldOut), fmt.Sprintf("states <- %v", e.stateOut))
	return out
}

// NumInstrs is the length of an engine's register program.
func NumInstrs(e *Engine) int { return len(e.prog) }
