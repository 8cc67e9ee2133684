// Package alu defines the computation units of the simulated PISA pipeline:
// a Banzai-style stateless ALU and a catalog of stateful ALU templates
// (paper §2.2 and §4).
//
// Each ALU is a small parametric function whose parameters — opcode,
// operand-mux selectors, immediate constants, predicate modes — are the
// synthesis holes of Table 1 in the paper. ALU semantics are written once,
// generically over arith.Arith, and instantiated both concretely (the PISA
// simulator executing a configuration) and symbolically (the sketch circuit
// handed to CEGIS). Hole values enter as ordinary values of the
// instantiation type: concrete integers when simulating, free bit-vector
// inputs when synthesizing.
//
// The stateful templates follow Banzai's atom menu (Sivaraman et al.,
// SIGCOMM 2016), which the paper reuses: per §4, "for each of the
// mutations, we used the stateful ALU that was used to generate code for
// the original program".
package alu

import (
	"fmt"

	"repro/internal/arith"
)

// HoleDef names one synthesis hole and its width in bits. A hole with k
// bits ranges over [0, 2^k); the sketch layer zero-extends hole values to
// the datapath width before they reach ALU semantics.
type HoleDef struct {
	Name string
	Bits int
	// Data marks value-carrying holes (immediate operands). Data holes
	// may be truncated to a narrower datapath soundly, because truncation
	// commutes with the ALU's arithmetic; control holes (opcodes, mux
	// selectors, predicate and mode choices) must never be truncated —
	// their encodings would alias and change meaning — so the synthesis
	// width is clamped to the widest control hole (see sketch.MinWidth).
	Data bool
}

// DefaultConstBits is the default width of immediate-operand holes. The
// paper notes (§3.1, Limitations) that synthesizing large constants is slow,
// so immediates are deliberately narrow; 4 bits covers every constant in
// the benchmark corpus while keeping the search space small. It is
// configurable per compile and swept by the ablation benchmarks.
const DefaultConstBits = 4

// --- Stateless ALU -----------------------------------------------------------

// Stateless opcodes. The set mirrors Banzai's stateless ALU, "supporting
// arithmetic, boolean, relational, and conditional operators, similar to
// RMT" (paper §4). Operand A and B arrive from the ALU's two input muxes;
// imm is the immediate-operand hole.
const (
	SlOpConst  = iota // imm
	SlOpPassA         // A
	SlOpAdd           // A + B
	SlOpSub           // A - B
	SlOpAddImm        // A + imm
	SlOpSubImm        // A - imm
	SlOpAnd           // A & B
	SlOpOr            // A | B
	SlOpXor           // A ^ B
	SlOpNot           // ~A
	SlOpEq            // A == B
	SlOpNe            // A != B
	SlOpLt            // A < B (signed)
	SlOpGe            // A >= B (signed)
	SlOpEqImm         // A == imm
	SlOpCond          // A ? B : imm

	NumStatelessOpcodes
)

// statelessOpNames maps opcodes to mnemonic strings for reports.
var statelessOpNames = [NumStatelessOpcodes]string{
	"const", "pass_a", "add", "sub", "addi", "subi", "and", "or", "xor",
	"not", "eq", "ne", "lt", "ge", "eqi", "cond",
}

// StatelessOpName returns the mnemonic for a stateless opcode.
func StatelessOpName(op uint64) string {
	if op < NumStatelessOpcodes {
		return statelessOpNames[op]
	}
	return fmt.Sprintf("op%d", op)
}

// ArithOnlyMask is an opcode mask restricting the stateless ALU to
// arithmetic operations (the §3.1 heuristic the ablation bench sweeps).
const ArithOnlyMask uint32 = 1<<SlOpConst | 1<<SlOpPassA | 1<<SlOpAdd |
	1<<SlOpSub | 1<<SlOpAddImm | 1<<SlOpSubImm

// FullOpcodeMask allows every stateless opcode.
const FullOpcodeMask uint32 = 1<<NumStatelessOpcodes - 1

// OpcodeBits is the width of the stateless opcode hole.
const OpcodeBits = 4

// Stateless describes a stateless ALU variant. The zero value means "full
// opcode set, default immediate width".
type Stateless struct {
	// ConstBits is the immediate hole width; 0 means DefaultConstBits.
	ConstBits int
	// OpcodeMask restricts which opcodes synthesis may choose; 0 means
	// FullOpcodeMask. Masked-out opcodes are excluded by sketch-level
	// assertions, not by the semantics below.
	OpcodeMask uint32
}

// EffectiveConstBits resolves the default.
func (s Stateless) EffectiveConstBits() int {
	if s.ConstBits == 0 {
		return DefaultConstBits
	}
	return s.ConstBits
}

// EffectiveOpcodeMask resolves the default.
func (s Stateless) EffectiveOpcodeMask() uint32 {
	if s.OpcodeMask == 0 {
		return FullOpcodeMask
	}
	return s.OpcodeMask
}

// Holes lists the stateless ALU's internal holes (input-mux holes belong to
// the surrounding grid sketch).
func (s Stateless) Holes() []HoleDef {
	return []HoleDef{
		{Name: "opcode", Bits: OpcodeBits},
		{Name: "imm", Bits: s.EffectiveConstBits(), Data: true},
	}
}

// EvalStateless computes the stateless ALU output from its two mux-selected
// operands and its holes (opcode, imm).
func EvalStateless[V any](a arith.Arith[V], holes map[string]V, opA, opB V) V {
	opcode := holes["opcode"]
	imm := holes["imm"]
	return arith.Select(a, opcode,
		imm,                  // const
		opA,                  // pass_a
		a.Add(opA, opB),      // add
		a.Sub(opA, opB),      // sub
		a.Add(opA, imm),      // addi
		a.Sub(opA, imm),      // subi
		a.BitAnd(opA, opB),   // and
		a.BitOr(opA, opB),    // or
		a.BitXor(opA, opB),   // xor
		a.BitNot(opA),        // not
		a.Eq(opA, opB),       // eq
		a.Ne(opA, opB),       // ne
		a.Lt(opA, opB),       // lt
		a.Ge(opA, opB),       // ge
		a.Eq(opA, imm),       // eqi
		a.Mux(opA, opB, imm), // cond
	)
}

// --- Stateful ALU templates ----------------------------------------------------

// Kind names a stateful ALU template from the Banzai atom menu.
type Kind int

// The stateful ALU catalog, ordered roughly by expressiveness.
const (
	// Counter is the paper's Appendix A stateful ALU:
	// state = mode ? packet : state + const.
	Counter Kind = iota
	// PredRaw guards a single update with a relational predicate:
	// state = pred(state, cmp) ? update(state, operand) : state.
	PredRaw
	// IfElseRaw chooses between two updates with a predicate:
	// state = pred ? update1 : update2.
	IfElseRaw
	// Sub extends IfElseRaw with a subtraction inside the predicate:
	// pred compares (state - operand) against a constant.
	Sub
	// NestedIfs has a two-level predicate tree selecting among four
	// updates.
	NestedIfs
	// Pair updates two state variables together under a shared predicate
	// over a difference — needed for flowlet switching.
	Pair

	numKinds
)

var kindNames = [numKinds]string{
	"counter", "pred_raw", "if_else_raw", "sub", "nested_ifs", "pair",
}

// Valid reports whether k names a template in the catalog.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// String returns the template's name.
func (k Kind) String() string {
	if k.Valid() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindByName resolves a template name (as used in CLI flags and the
// benchmark corpus metadata).
func KindByName(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("alu: unknown stateful ALU kind %q", name)
}

// Stateful describes a stateful ALU variant: a template plus the immediate
// hole width.
type Stateful struct {
	Kind Kind
	// ConstBits is the immediate hole width; 0 means DefaultConstBits.
	ConstBits int
}

// EffectiveConstBits resolves the default.
func (s Stateful) EffectiveConstBits() int {
	if s.ConstBits == 0 {
		return DefaultConstBits
	}
	return s.ConstBits
}

// NumStates is how many state variables the ALU stores (Pair stores two).
func (s Stateful) NumStates() int {
	if s.Kind == Pair {
		return 2
	}
	return 1
}

// NumPacketOperands is how many mux-selected packet operands the ALU reads.
func (s Stateful) NumPacketOperands() int {
	if s.Kind == Pair {
		return 2
	}
	return 1
}

// Output-selector values shared by all templates: what the stateful ALU
// drives onto its result wire (readable by the stage's output muxes).
const (
	OutOldState = iota // state value before the update
	OutNewState        // state value after the update
	OutPred            // the predicate bit (0/1)
	OutConst           // the ALU's immediate constant

	outSelBits = 2
)

// RelBits is the width of relational-operator holes; the 6 meaningful
// values are ==, !=, <, <=, >, >= (values 6 and 7 alias >=).
const RelBits = 3

// Relational-operator hole values.
const (
	RelEq = iota
	RelNe
	RelLt
	RelLe
	RelGt
	RelGe

	NumRelOps
)

// Update-mode hole values for single-state templates: how the state is
// combined with the selected operand u.
const (
	UpdAddOp = iota // state + u
	UpdSetOp        // u
	UpdSubOp        // state - u
	UpdKeep         // state (no-op)
)

// Holes lists the template's internal holes. Names are stable and appear in
// synthesized configuration dumps.
//
// Naming conventions shared by the single-state templates: predicates
// compare cmpL against cmpR, where cmp_lmux selects cmpL from {state,
// packet} and cmp_rmux selects cmpR from {packet, cmp_const}. Updates
// combine the state with an operand u per a 2-bit mode (state+u, u,
// state-u, state), where <name>_mux selects u from {packet, <name>_const}.
func (s Stateful) Holes() []HoleDef {
	cb := s.EffectiveConstBits()
	upd := func(g updHoles) []HoleDef {
		return []HoleDef{
			{g.mode, 2, false}, {g.mux, 1, false}, {g.konst, cb, true},
		}
	}
	pred := func(g predHoles) []HoleDef {
		return []HoleDef{
			{g.rel, RelBits, false}, {g.lmux, 1, false}, {g.rmux, 1, false},
			{g.konst, cb, true},
		}
	}
	switch s.Kind {
	case Counter:
		return []HoleDef{
			{"mode", 1, false}, {"const", cb, true},
		}
	case PredRaw:
		defs := pred(predMain)
		defs = append(defs, upd(updUpd)...)
		return append(defs, HoleDef{"out_sel", outSelBits, false})
	case IfElseRaw:
		defs := pred(predMain)
		defs = append(defs, upd(updThen)...)
		defs = append(defs, upd(updElse)...)
		return append(defs, HoleDef{"out_sel", outSelBits, false})
	case Sub:
		defs := pred(predMain)
		defs = append(defs, HoleDef{"cmp_const2", cb, true})
		defs = append(defs, upd(updThen)...)
		defs = append(defs, upd(updElse)...)
		return append(defs, HoleDef{"out_sel", outSelBits, false})
	case NestedIfs:
		defs := pred(predP1)
		defs = append(defs, pred(predP2)...)
		for _, g := range updNested {
			defs = append(defs, upd(g)...)
		}
		return append(defs, HoleDef{"out_sel", outSelBits, false})
	case Pair:
		return []HoleDef{
			{"rel", RelBits, false}, {"cmp_lmux", 2, false}, {"cmp_rmux", 2, false},
			{"cmp_const", cb, true}, {"upd_const", cb, true},
			{"s0_then_sel", 2, false}, {"s0_then_mode", 2, false},
			{"s0_else_sel", 2, false}, {"s0_else_mode", 2, false},
			{"s1_then_sel", 2, false}, {"s1_then_mode", 2, false},
			{"s1_else_sel", 2, false}, {"s1_else_mode", 2, false},
			{"out_sel", 3, false},
		}
	default:
		panic("alu: unknown stateful kind")
	}
}

// predHoles names one predicate group's holes (relation, comparison
// operand muxes, comparison constant), updHoles one update group's (mode,
// operand mux, update constant). Each group is named once, so evaluation
// builds no strings: the concrete datapath must not allocate per packet.
type predHoles struct{ rel, lmux, rmux, konst string }
type updHoles struct{ mode, mux, konst string }

func predNames(p string) predHoles {
	return predHoles{p + "rel", p + "cmp_lmux", p + "cmp_rmux", p + "cmp_const"}
}
func updNames(p string) updHoles { return updHoles{p + "_mode", p + "_mux", p + "_const"} }

var (
	predMain, predP1, predP2 = predNames(""), predNames("p1_"), predNames("p2_")
	updUpd, updThen, updElse = updNames("upd"), updNames("then"), updNames("else")
	updNested                = [4]updHoles{updNames("upd00"), updNames("upd01"), updNames("upd10"), updNames("upd11")}
)

// relop dispatches the 3-bit relational-operator hole.
func relop[V any](a arith.Arith[V], rel, x, y V) V {
	return arith.Select(a, rel,
		a.Eq(x, y), a.Ne(x, y), a.Lt(x, y), a.Le(x, y), a.Gt(x, y), a.Ge(x, y))
}

// update dispatches the 2-bit update-mode hole over a base (the state) and
// an operand u: base+u, u, base-u, base.
func update[V any](a arith.Arith[V], mode, base, u V) V {
	return arith.Select(a, mode, a.Add(base, u), u, a.Sub(base, u), base)
}

// EvalStateful executes a stateful ALU template. state has NumStates
// elements, pkt has NumPacketOperands elements (already selected by the
// grid's stateful input muxes). It returns the new state vector and the
// ALU's output wire value.
func EvalStateful[V any](a arith.Arith[V], s Stateful, holes map[string]V, state, pkt []V) ([]V, V) {
	newSt := make([]V, s.NumStates())
	out := EvalStatefulInto(a, s, holes, state, pkt, newSt)
	return newSt, out
}

// EvalStatefulInto is EvalStateful writing the new state vector into newSt
// (length NumStates) instead of allocating one — the variant the
// allocation-free execution paths (pisa.Config.ExecInto, internal/linerate)
// use. newSt may not alias state.
func EvalStatefulInto[V any](a arith.Arith[V], s Stateful, holes map[string]V, state, pkt, newSt []V) V {
	if len(state) != s.NumStates() || len(pkt) != s.NumPacketOperands() || len(newSt) != s.NumStates() {
		panic(fmt.Sprintf("alu: %s expects %d states and %d operands, got %d, %d and %d new-state slots",
			s.Kind, s.NumStates(), s.NumPacketOperands(), len(state), len(pkt), len(newSt)))
	}
	h := func(name string) V {
		v, ok := holes[name]
		if !ok {
			panic(fmt.Sprintf("alu: missing hole %q for %s", name, s.Kind))
		}
		return v
	}
	// predicate evaluates a predicate hole group against the old state and
	// the packet operand.
	predicate := func(g predHoles, oldS V) V {
		cmpL := a.Mux(h(g.lmux), pkt[0], oldS)
		cmpR := a.Mux(h(g.rmux), pkt[0], h(g.konst))
		return relop(a, h(g.rel), cmpL, cmpR)
	}
	// updGroup evaluates an update hole group.
	updGroup := func(g updHoles, oldS V) V {
		u := a.Mux(h(g.mux), pkt[0], h(g.konst))
		return update(a, h(g.mode), oldS, u)
	}
	switch s.Kind {
	case Counter:
		oldS := state[0]
		newSt[0] = a.Mux(h("mode"), pkt[0], a.Add(oldS, h("const")))
		return oldS

	case PredRaw:
		oldS := state[0]
		pred := predicate(predMain, oldS)
		newS := a.Mux(pred, updGroup(updUpd, oldS), oldS)
		out := arith.Select(a, h("out_sel"), oldS, newS, pred, h("cmp_const"))
		newSt[0] = newS
		return out

	case IfElseRaw:
		oldS := state[0]
		pred := predicate(predMain, oldS)
		newS := a.Mux(pred, updGroup(updThen, oldS), updGroup(updElse, oldS))
		out := arith.Select(a, h("out_sel"), oldS, newS, pred, h("cmp_const"))
		newSt[0] = newS
		return out

	case Sub:
		oldS := state[0]
		cmpL := a.Mux(h("cmp_lmux"), pkt[0], oldS)
		cmpR := a.Mux(h("cmp_rmux"), pkt[0], h("cmp_const"))
		pred := relop(a, h("rel"), a.Sub(cmpL, cmpR), h("cmp_const2"))
		newS := a.Mux(pred, updGroup(updThen, oldS), updGroup(updElse, oldS))
		out := arith.Select(a, h("out_sel"), oldS, newS, pred, h("cmp_const"))
		newSt[0] = newS
		return out

	case NestedIfs:
		oldS := state[0]
		pred1 := predicate(predP1, oldS)
		pred2 := predicate(predP2, oldS)
		newS := a.Mux(pred1,
			a.Mux(pred2, updGroup(updNested[0], oldS), updGroup(updNested[1], oldS)),
			a.Mux(pred2, updGroup(updNested[2], oldS), updGroup(updNested[3], oldS)))
		out := arith.Select(a, h("out_sel"), oldS, newS, pred1, pred2)
		newSt[0] = newS
		return out

	case Pair:
		oldS0, oldS1 := state[0], state[1]
		c2 := h("upd_const")
		sel4 := func(code V) V {
			return arith.Select(a, code, oldS0, oldS1, pkt[0], pkt[1])
		}
		pred := relop(a, h("rel"), a.Sub(sel4(h("cmp_lmux")), sel4(h("cmp_rmux"))), h("cmp_const"))
		upd := func(selName, modeName string) V {
			base := sel4(h(selName))
			return update(a, h(modeName), base, c2)
		}
		newS0 := a.Mux(pred, upd("s0_then_sel", "s0_then_mode"), upd("s0_else_sel", "s0_else_mode"))
		newS1 := a.Mux(pred, upd("s1_then_sel", "s1_then_mode"), upd("s1_else_sel", "s1_else_mode"))
		out := arith.Select(a, h("out_sel"), oldS0, oldS1, newS0, newS1, pred, c2)
		newSt[0], newSt[1] = newS0, newS1
		return out

	default:
		panic("alu: unknown stateful kind")
	}
}
