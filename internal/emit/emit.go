// Package emit translates synthesized hardware configurations into
// low-level code — the backend translator the paper lists as pending work
// (§3.1, Limitations: "running Chipmunk on a real switch such as Tofino
// requires translating Chipmunk's holes to low-level switch
// configurations... We are currently designing such a translator").
//
// Two backends are provided:
//
//   - Go prints a pisa.Config's line-rate register program
//     (internal/linerate) as a standalone, dependency-free Go program
//     that implements the same packet transaction. linerate.Compile has
//     already resolved every mux chain, opcode dispatch and salu_active
//     guard against the configuration's concrete hole values, dropped
//     dead ALUs and computed shared values once, so the emitted code is
//     straight-line — compilation, not interpretation — and it is
//     differential-tested against the simulator by actually building and
//     running it.
//
//   - P4 renders the configuration as a P4-16-flavored program (headers,
//     registers with @atomic apply blocks, one action per used ALU, a
//     stage-ordered control). It documents how each Table 1 hole maps onto
//     switch-facing constructs; without a vendor toolchain in this offline
//     environment it is checked structurally, not compiled.
package emit

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/alu"
	"repro/internal/linerate"
	"repro/internal/pisa"
	"repro/internal/word"
)

// --- Go backend ----------------------------------------------------------------

// Go translates the configuration into a self-contained Go source file.
// The generated program exposes
//
//	func process(pkt, state map[string]uint64) (map[string]uint64, map[string]uint64)
//
// and a main() that runs `packets` deterministic pseudo-random packets
// through it, printing one CSV line per packet — the harness the
// differential test drives.
//
// process is the configuration's line-rate register program
// (linerate.Compile) printed one assignment per register: the constants,
// the loads, one rD := op(rA, rB[, rC]) per instruction, then the stores.
// It therefore carries linerate's dead-code and common-subexpression
// elimination, and every operator has one Go helper in the prelude.
func Go(cfg *pisa.Config, packets int, seed uint64) (string, error) {
	eng, err := linerate.Compile(cfg)
	if err != nil {
		return "", err
	}
	p := eng.Program()
	var sb strings.Builder
	fmt.Fprintf(&sb, goPrelude, p.Width, p.Width.Mask())
	sb.WriteString("func process(pkt, state map[string]uint64) (map[string]uint64, map[string]uint64) {\n")
	for r, k := range p.Consts {
		fmt.Fprintf(&sb, "\tr%d := uint64(%d)\n", r, k)
	}
	for _, l := range p.FieldIn {
		fmt.Fprintf(&sb, "\tr%d := trunc(pkt[%q])\n", l.Dst, cfg.Fields[l.Src])
	}
	for _, l := range p.StateIn {
		fmt.Fprintf(&sb, "\tr%d := trunc(state[%q])\n", l.Dst, cfg.States[l.Src])
	}
	for _, in := range p.Instrs {
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = fmt.Sprintf("r%d", a)
		}
		fmt.Fprintf(&sb, "\tr%d := %s(%s)\n", in.Dst, in.Op, strings.Join(args, ", "))
	}
	sb.WriteString("\toutPkt := map[string]uint64{}\n")
	for f, r := range p.FieldOut {
		fmt.Fprintf(&sb, "\toutPkt[%q] = r%d\n", cfg.Fields[f], r)
	}
	sb.WriteString("\toutState := map[string]uint64{}\n")
	for s, r := range p.StateOut {
		fmt.Fprintf(&sb, "\toutState[%q] = r%d\n", cfg.States[s], r)
	}
	sb.WriteString("\treturn outPkt, outState\n}\n\n")

	// Test-harness main: deterministic packet stream, CSV output.
	fields := append([]string{}, cfg.Fields...)
	states := append([]string{}, cfg.States...)
	sort.Strings(fields)
	sort.Strings(states)
	fmt.Fprintf(&sb, "func main() {\n")
	fmt.Fprintf(&sb, "\trngState := uint64(%d)\n", seed)
	fmt.Fprintf(&sb, "\tstate := map[string]uint64{}\n")
	fmt.Fprintf(&sb, "\tfor i := 0; i < %d; i++ {\n", packets)
	fmt.Fprintf(&sb, "\t\tpkt := map[string]uint64{}\n")
	for _, f := range fields {
		fmt.Fprintf(&sb, "\t\tpkt[%q] = trunc(next(&rngState))\n", f)
	}
	fmt.Fprintf(&sb, "\t\toutPkt, outState := process(pkt, state)\n")
	fmt.Fprintf(&sb, "\t\tstate = outState\n")
	fmt.Fprintf(&sb, "\t\tfmt.Printf(\"%%d\", i)\n")
	for _, f := range fields {
		fmt.Fprintf(&sb, "\t\tfmt.Printf(\",%%d\", outPkt[%q])\n", f)
	}
	for _, s := range states {
		fmt.Fprintf(&sb, "\t\tfmt.Printf(\",%%d\", outState[%q])\n", s)
	}
	fmt.Fprintf(&sb, "\t\tfmt.Println()\n")
	fmt.Fprintf(&sb, "\t}\n}\n")
	return sb.String(), nil
}

// goPrelude is the emitted runtime: one helper per linerate operator,
// each internal/word's function of that name at a fixed width, in ~45
// lines of dependency-free Go. %[1]d is the width, %[2]d the mask.
const goPrelude = `// Code generated by repro/internal/emit. DO NOT EDIT.
//
// A packet-processing pipeline synthesized by Chipmunk, translated to
// plain Go. All arithmetic is %[1]d-bit two's complement.
package main

import "fmt"

const mask = uint64(%[2]d)

func trunc(v uint64) uint64 { return v & mask }
func toInt(v uint64) int64 {
	v &= mask
	if v&(mask>>1+1) != 0 {
		return int64(v | ^mask)
	}
	return int64(v)
}
func b2w(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
func add(a, b uint64) uint64 { return (a + b) & mask }
func sub(a, b uint64) uint64 { return (a - b) & mask }
func mul(a, b uint64) uint64 { return (a * b) & mask }
func and(a, b uint64) uint64 { return a & b & mask }
func or(a, b uint64) uint64  { return (a | b) & mask }
func xor(a, b uint64) uint64 { return (a ^ b) & mask }
func not(a uint64) uint64    { return (^a) & mask }
func neg(a uint64) uint64    { return (-a) & mask }
func shl(a, b uint64) uint64 {
	if b >= %[1]d {
		return 0
	}
	return (a << b) & mask
}
func shr(a, b uint64) uint64 {
	if b >= %[1]d {
		return 0
	}
	return (a & mask) >> b
}
func eq(a, b uint64) uint64   { return b2w(a&mask == b&mask) }
func ne(a, b uint64) uint64   { return b2w(a&mask != b&mask) }
func lt(a, b uint64) uint64   { return b2w(toInt(a) < toInt(b)) }
func le(a, b uint64) uint64   { return b2w(toInt(a) <= toInt(b)) }
func gt(a, b uint64) uint64   { return b2w(toInt(a) > toInt(b)) }
func ge(a, b uint64) uint64   { return b2w(toInt(a) >= toInt(b)) }
func land(a, b uint64) uint64 { return b2w(a != 0 && b != 0) }
func lor(a, b uint64) uint64  { return b2w(a != 0 || b != 0) }
func lnot(a uint64) uint64    { return b2w(a == 0) }
func mux(s, t, f uint64) uint64 {
	if s != 0 {
		return t
	}
	return f
}
func next(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

`

// --- P4 backend ----------------------------------------------------------------

// P4 renders the configuration as a P4-16-flavored program. Each PHV
// container becomes a metadata field; each active stateful ALU becomes a
// register with an @atomic read-modify-write; each used stateless ALU and
// output mux becomes an action in the stage's control block. The emitted
// text documents the hole values it was derived from.
func P4(cfg *pisa.Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	g := cfg.Grid
	var sb strings.Builder
	w := int(g.WordWidth)

	fmt.Fprintf(&sb, "// Auto-generated from a Chipmunk-synthesized configuration.\n")
	fmt.Fprintf(&sb, "// Grid: %d stages x %d containers, %d-bit datapath, stateful ALU %q.\n\n",
		g.Stages, g.Width, w, g.StatefulALU.Kind)
	fmt.Fprintf(&sb, "#include <core.p4>\n#include <v1model.p4>\n\n")

	// Headers: program fields.
	fmt.Fprintf(&sb, "header chipmunk_h {\n")
	for _, f := range cfg.Fields {
		fmt.Fprintf(&sb, "    bit<%d> %s;\n", w, f)
	}
	fmt.Fprintf(&sb, "}\n\n")

	// PHV containers as metadata.
	fmt.Fprintf(&sb, "struct metadata_t {\n")
	for c := 0; c < g.Width; c++ {
		fmt.Fprintf(&sb, "    bit<%d> phv_%d;\n", w, c)
	}
	fmt.Fprintf(&sb, "}\n\n")

	// Registers: one per active stateful ALU slot and state element.
	ns := g.StatefulALU.NumStates()
	for j, s := range cfg.States {
		fmt.Fprintf(&sb, "register<bit<%d>>(1) reg_%s; // state slot %d element %d\n",
			w, s, j/ns, j%ns)
	}
	sb.WriteString("\n")

	fmt.Fprintf(&sb, "control ChipmunkPipe(inout chipmunk_h hdr, inout metadata_t meta) {\n")

	// Field -> container loads (canonical or indicator allocation).
	fmt.Fprintf(&sb, "    apply {\n")
	for i, f := range cfg.Fields {
		c := i
		if cfg.Values.FieldAlloc != nil {
			for cc, bit := range cfg.Values.FieldAlloc[i] {
				if bit == 1 {
					c = cc
				}
			}
		}
		fmt.Fprintf(&sb, "        meta.phv_%d = hdr.%s; // field allocation\n", c, f)
	}

	for i := 0; i < g.Stages; i++ {
		fmt.Fprintf(&sb, "\n        // ---- stage %d ----\n", i)
		// Stateful ALUs first (their outputs feed the output muxes).
		for j := 0; j < g.Width; j++ {
			if cfg.Values.SaluActive[i][j] == 0 {
				continue
			}
			h := cfg.Values.Stateful[i][j]
			states := statesOfSlot(cfg, j)
			fmt.Fprintf(&sb, "        @atomic { // stateful ALU %d: %s, holes: %s\n",
				j, g.StatefulALU.Kind, holeComment(h))
			for _, s := range states {
				fmt.Fprintf(&sb, "            // reg_%s.read/modify/write per template %q\n", s, g.StatefulALU.Kind)
			}
			fmt.Fprintf(&sb, "        }\n")
		}
		// Stateless ALUs and output muxes.
		for j := 0; j < g.Width; j++ {
			sel := cfg.Values.OMux[i][j]
			if int(sel) < g.Width {
				fmt.Fprintf(&sb, "        meta.phv_%d = /* stateful ALU %d output (omux=%d) */ meta.phv_%d;\n",
					j, sel, sel, j)
				continue
			}
			sl := cfg.Values.Stateless[i][j]
			fmt.Fprintf(&sb, "        meta.phv_%d = %s; // stateless ALU %d\n",
				j, statelessP4Expr(sl), j)
		}
	}

	// Container -> field stores.
	sb.WriteString("\n")
	for i, f := range cfg.Fields {
		c := i
		if cfg.Values.FieldAlloc != nil {
			for cc, bit := range cfg.Values.FieldAlloc[i] {
				if bit == 1 {
					c = cc
				}
			}
		}
		fmt.Fprintf(&sb, "        hdr.%s = meta.phv_%d;\n", f, c)
	}
	fmt.Fprintf(&sb, "    }\n}\n")
	return sb.String(), nil
}

func statesOfSlot(cfg *pisa.Config, slot int) []string {
	ns := cfg.Grid.StatefulALU.NumStates()
	var out []string
	for k := 0; k < ns; k++ {
		idx := slot*ns + k
		if idx < len(cfg.States) {
			out = append(out, cfg.States[idx])
		}
	}
	return out
}

// statelessP4Expr renders one configured stateless ALU as a P4 expression.
func statelessP4Expr(h map[string]uint64) string {
	a := fmt.Sprintf("meta.phv_%d", h["imux1"])
	b := fmt.Sprintf("meta.phv_%d", h["imux2"])
	imm := fmt.Sprintf("%d", h["imm"])
	switch h["opcode"] {
	case alu.SlOpConst:
		return imm
	case alu.SlOpPassA:
		return a
	case alu.SlOpAdd:
		return a + " + " + b
	case alu.SlOpSub:
		return a + " - " + b
	case alu.SlOpAddImm:
		return a + " + " + imm
	case alu.SlOpSubImm:
		return a + " - " + imm
	case alu.SlOpAnd:
		return a + " & " + b
	case alu.SlOpOr:
		return a + " | " + b
	case alu.SlOpXor:
		return a + " ^ " + b
	case alu.SlOpNot:
		return "~" + a
	case alu.SlOpEq:
		return boolToBit(a + " == " + b)
	case alu.SlOpNe:
		return boolToBit(a + " != " + b)
	case alu.SlOpLt:
		return boolToBit(signed(a) + " < " + signed(b))
	case alu.SlOpGe:
		return boolToBit(signed(a) + " >= " + signed(b))
	case alu.SlOpEqImm:
		return boolToBit(a + " == " + imm)
	case alu.SlOpCond:
		return fmt.Sprintf("(%s != 0 ? %s : %s)", a, b, imm)
	default:
		return fmt.Sprintf("/* opcode %d */ %s", h["opcode"], a)
	}
}

func boolToBit(cond string) string { return fmt.Sprintf("((%s) ? 1 : 0)", cond) }

func signed(v string) string { return "(int)" + v }

// holeComment renders hole values deterministically for emitted comments.
func holeComment(h map[string]uint64) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, h[k])
	}
	return strings.Join(parts, " ")
}

// Width re-exports the config's word width for emit clients (CLI display).
func Width(cfg *pisa.Config) word.Width { return cfg.Grid.WordWidth }
