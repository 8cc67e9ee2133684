package linerate

import "fmt"

// Listing disassembles an engine's register program, one line per
// instruction, then its constants, loads and stores, so tests can pin and
// compare programs.
func Listing(e *Engine) []string {
	p := e.Program()
	var out []string
	for _, in := range p.Instrs {
		line := fmt.Sprintf("r%d = %s r%d", in.Dst, in.Op, in.Args[0])
		for _, a := range in.Args[1:] {
			line += fmt.Sprintf(", r%d", a)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("consts %v", p.Consts))
	for _, l := range p.FieldIn {
		out = append(out, fmt.Sprintf("r%d <- field %d", l.Dst, l.Src))
	}
	for _, l := range p.StateIn {
		out = append(out, fmt.Sprintf("r%d <- state %d", l.Dst, l.Src))
	}
	out = append(out, fmt.Sprintf("fields <- %v", p.FieldOut), fmt.Sprintf("states <- %v", p.StateOut))
	return out
}

// NumInstrs is the length of an engine's register program.
func NumInstrs(e *Engine) int { return len(e.Program().Instrs) }
