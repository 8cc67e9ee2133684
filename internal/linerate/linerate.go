// Package linerate compiles a validated pisa.Config into a straight-line
// register program — the runtime half of the paper's premise that
// synthesized switch code runs at line rate.
//
// Config.ExecInto interprets the grid: every mux re-walks its selection
// chain and every hole is re-read from its map per packet, and every ALU
// runs whether or not anything reads it. Compile does that work once. It
// pushes the packet through the grid once over a partial-evaluation
// domain whose values are either a constant or a register, running each
// ALU through internal/alu's generic evaluators:
//
//   - hole values are constants, so field allocation, input and output
//     muxes and salu_active guards resolve to a choice of value — a
//     container is just a name for a register, and routing becomes
//     renaming;
//   - every operator with constant operands folds, through the same
//     word.Width function the runtime applies, which collapses each ALU's
//     opcode and mode dispatch;
//   - a backwards walk from the field outputs and state write-backs keeps
//     only the operators some output reads, and emits each as one
//     instruction hash-consed on (opcode, operands), so a value two
//     outputs read is computed once.
//
// ExecInto then masks the inputs into their registers, runs the
// instructions with one flat switch, and stores the output registers, with
// zero per-packet allocation.
//
// Bit-identity with Config.ExecInto is the load-bearing property: the ALU
// semantics are the shared generic definitions (not a reimplementation),
// the grid plumbing follows pisa.Datapath with word.Width.SelIdx as
// arith.Select's concrete meaning (including the truncating-selector
// aliasing at narrow widths), and the fold and the run loop are one
// function, exec, so an operator means the same whether it runs at build
// time or per packet. Selecting both mux arms eagerly is sound because
// every operator is total and pure. The equivalence is pinned by
// exhaustive small-width sweeps, randomized full-width probes, and a
// native fuzz target in internal/difftest.
package linerate

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/pisa"
	"repro/internal/word"
)

// opcode is one register-program operator.
type opcode uint8

const (
	opAdd opcode = iota
	opSub
	opMul
	opAnd
	opOr
	opXor
	opShl
	opShr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opLAnd
	opLOr
	opNot
	opNeg
	opLNot
	opMux

	numOpcodes
)

// arity is how many operands each opcode reads: a; a, b; or a, b, c.
var arity = [numOpcodes]int{
	opNot: 1, opNeg: 1, opLNot: 1,
	opAdd: 2, opSub: 2, opMul: 2, opAnd: 2, opOr: 2, opXor: 2, opShl: 2, opShr: 2,
	opEq: 2, opNe: 2, opLt: 2, opLe: 2, opGt: 2, opGe: 2, opLAnd: 2, opLOr: 2,
	opMux: 3,
}

// opNames name the opcodes in Program, the view every rendering of an
// engine's program (a disassembly, emitted Go) is printed from.
var opNames = [numOpcodes]string{
	opAdd: "add", opSub: "sub", opMul: "mul", opAnd: "and", opOr: "or", opXor: "xor",
	opShl: "shl", opShr: "shr", opEq: "eq", opNe: "ne", opLt: "lt", opLe: "le",
	opGt: "gt", opGe: "ge", opLAnd: "land", opLOr: "lor", opNot: "not", opNeg: "neg",
	opLNot: "lnot", opMux: "mux",
}

// instr computes r[dst] = op(r[a], r[b], r[c]); operands past the
// opcode's arity are -1.
type instr struct {
	op      opcode
	dst     int32
	a, b, c int32
}

// exec runs prog over the register file r. It is the only place an opcode
// meets its word function: Compile folds constant operands by running a
// one-instruction program through it.
func exec(w word.Width, prog []instr, r []uint64) {
	for _, in := range prog {
		x := r[in.a]
		var v uint64
		switch in.op {
		case opAdd:
			v = w.Add(x, r[in.b])
		case opSub:
			v = w.Sub(x, r[in.b])
		case opMul:
			v = w.Mul(x, r[in.b])
		case opAnd:
			v = w.And(x, r[in.b])
		case opOr:
			v = w.Or(x, r[in.b])
		case opXor:
			v = w.Xor(x, r[in.b])
		case opShl:
			v = w.Shl(x, r[in.b])
		case opShr:
			v = w.Shr(x, r[in.b])
		case opEq:
			v = w.Eq(x, r[in.b])
		case opNe:
			v = w.Ne(x, r[in.b])
		case opLt:
			v = w.Lt(x, r[in.b])
		case opLe:
			v = w.Le(x, r[in.b])
		case opGt:
			v = w.Gt(x, r[in.b])
		case opGe:
			v = w.Ge(x, r[in.b])
		case opLAnd:
			v = word.LAnd(x, r[in.b])
		case opLOr:
			v = word.LOr(x, r[in.b])
		case opNot:
			v = w.Not(x)
		case opNeg:
			v = w.Neg(x)
		case opLNot:
			v = word.LNot(x)
		case opMux:
			// Eager select: both arms are already computed, and every
			// operator is total and pure, so this equals word.Mux over
			// lazily evaluated arms.
			v = word.Mux(x, r[in.b], r[in.c])
		}
		r[in.dst] = v
	}
}

// val is the partial-evaluation domain: value r when reg — input slot r
// (fields, then states) below builder.nIn, node r-nIn above — else the
// constant k. The zero val is the constant 0, as a hole missing from a
// map reads in Config.ExecInto.
type val struct {
	k   uint64
	r   int32
	reg bool
}

func con(k uint64) val     { return val{k: k} }
func register(r int32) val { return val{r: r, reg: true} }

// node is one residual operator. An operand is a value index as in val,
// or -1-i for the constant builder.consts[i]; operands past the opcode's
// arity are unused.
type node struct {
	op   opcode
	args [3]int32
}

// builder instantiates arith.Arith over val, recording every operator it
// cannot fold as a node. Most nodes are dead — an ALU computes every
// opcode's result before its opcode selects one — so the builder only
// appends; link hash-conses and schedules the live ones.
type builder struct {
	w      word.Width
	nIn    int32
	nodes  []node
	consts []uint64 // distinct constant operands, in first-use order
}

var _ arith.Arith[val] = (*builder)(nil)

// operand names v in a node. A grid has few distinct constants, so a
// scan finds one faster than a map would.
func (b *builder) operand(v val) int32 {
	if v.reg {
		return v.r
	}
	i := slices.Index(b.consts, v.k)
	if i < 0 {
		i = len(b.consts)
		b.consts = append(b.consts, v.k)
	}
	return int32(-1 - i)
}

// emit folds op when all its operands are constants and otherwise records
// a node computing op over them.
func (b *builder) emit(op opcode, x, y, z val) val {
	n := arity[op]
	if !x.reg && (n < 2 || !y.reg) && (n < 3 || !z.reg) {
		r := [4]uint64{x.k, y.k, z.k}
		exec(b.w, []instr{{op: op, dst: 3, a: 0, b: 1, c: 2}}, r[:])
		return con(r[3])
	}
	nd := node{op: op}
	args := [3]val{x, y, z}
	for i, v := range args[:n] {
		nd.args[i] = b.operand(v)
	}
	b.nodes = append(b.nodes, nd)
	return register(b.nIn + int32(len(b.nodes)) - 1)
}

func (b *builder) un(op opcode, x val) val     { return b.emit(op, x, x, x) }
func (b *builder) bin(op opcode, x, y val) val { return b.emit(op, x, y, y) }

func (b *builder) ConstInt(v int64) val { return con(b.w.FromInt(v)) }

func (b *builder) Add(x, y val) val    { return b.bin(opAdd, x, y) }
func (b *builder) Sub(x, y val) val    { return b.bin(opSub, x, y) }
func (b *builder) Mul(x, y val) val    { return b.bin(opMul, x, y) }
func (b *builder) BitAnd(x, y val) val { return b.bin(opAnd, x, y) }
func (b *builder) BitOr(x, y val) val  { return b.bin(opOr, x, y) }
func (b *builder) BitXor(x, y val) val { return b.bin(opXor, x, y) }
func (b *builder) BitNot(x val) val    { return b.un(opNot, x) }
func (b *builder) Neg(x val) val       { return b.un(opNeg, x) }
func (b *builder) Shl(x, y val) val    { return b.bin(opShl, x, y) }
func (b *builder) Shr(x, y val) val    { return b.bin(opShr, x, y) }
func (b *builder) Eq(x, y val) val     { return b.bin(opEq, x, y) }
func (b *builder) Ne(x, y val) val     { return b.bin(opNe, x, y) }
func (b *builder) Lt(x, y val) val     { return b.bin(opLt, x, y) }
func (b *builder) Le(x, y val) val     { return b.bin(opLe, x, y) }
func (b *builder) Gt(x, y val) val     { return b.bin(opGt, x, y) }
func (b *builder) Ge(x, y val) val     { return b.bin(opGe, x, y) }
func (b *builder) LAnd(x, y val) val   { return b.bin(opLAnd, x, y) }
func (b *builder) LOr(x, y val) val    { return b.bin(opLOr, x, y) }
func (b *builder) LNot(x val) val      { return b.un(opLNot, x) }

// Mux resolves to the taken arm when the condition is constant — the step
// that collapses an ALU's opcode, mode and operand-select chains, since
// their selectors are hole constants. word.Mux passes arm values through
// unmasked, and so does this.
func (b *builder) Mux(c, t, f val) val {
	if !c.reg {
		if word.Truthy(c.k) {
			return t
		}
		return f
	}
	return b.emit(opMux, c, t, f)
}

// load moves input slot src of a packet's fields or states into register
// dst.
type load struct{ src, dst int32 }

// Engine is a pisa.Config compiled to a register program. Engines are
// immutable after Compile and safe for concurrent use; per-goroutine
// mutable state lives in Buf.
type Engine struct {
	fields []string
	states []string
	w      word.Width
	// Registers [0, len(consts)) hold consts, preloaded by NewBuf.
	consts   []uint64
	nregs    int
	fieldIn  []load
	stateIn  []load
	prog     []instr
	fieldOut []int32 // field -> register it stores
	stateOut []int32 // state -> register it stores
}

// NumFields returns how many packet fields the engine consumes per packet,
// in pisa.Config.Fields order.
func (e *Engine) NumFields() int { return len(e.fields) }

// NumStates returns the length of the per-flow state vector, in
// pisa.Config.States order.
func (e *Engine) NumStates() int { return len(e.states) }

// Fields returns the field names in slot order (aliased; do not mutate).
func (e *Engine) Fields() []string { return e.fields }

// States returns the state names in slot order (aliased; do not mutate).
func (e *Engine) States() []string { return e.states }

// Program is a read-only view of an engine's register program, in the
// order ExecInto runs it: register i < len(Consts) holds Consts[i], the
// loads fill the input registers some output reads, the instructions run
// in order, and the stores copy out the output registers.
type Program struct {
	Width    word.Width // every instruction computes at this width
	Consts   []uint64
	FieldIn  []Load // field slot (Fields order) -> register
	StateIn  []Load // state slot (States order) -> register
	Instrs   []Instr
	FieldOut []int // FieldOut[f] is the register stored to field f
	StateOut []int // StateOut[s] is the register stored to state s
}

// Load copies input slot Src into register Dst, truncated to the width.
type Load struct{ Src, Dst int }

// Instr computes register Dst = Op(Args...). Op is the operator's name —
// add, sub, mul, and, or, xor, shl, shr, eq, ne, lt, le, gt, ge, land,
// lor, not, neg, lnot or mux — and means the internal/word function of
// that name at the program's width (mux is word.Mux, an eager select).
type Instr struct {
	Op   string
	Dst  int
	Args []int
}

// Program returns a copy of the engine's register program.
func (e *Engine) Program() Program {
	ints := func(rs []int32) []int {
		out := make([]int, len(rs))
		for i, r := range rs {
			out[i] = int(r)
		}
		return out
	}
	loads := func(ls []load) []Load {
		out := make([]Load, len(ls))
		for i, l := range ls {
			out[i] = Load{Src: int(l.src), Dst: int(l.dst)}
		}
		return out
	}
	p := Program{
		Width:    e.w,
		Consts:   slices.Clone(e.consts),
		FieldIn:  loads(e.fieldIn),
		StateIn:  loads(e.stateIn),
		Instrs:   make([]Instr, len(e.prog)),
		FieldOut: ints(e.fieldOut),
		StateOut: ints(e.stateOut),
	}
	for i, in := range e.prog {
		args := []int{int(in.a), int(in.b), int(in.c)}[:arity[in.op]]
		p.Instrs[i] = Instr{Op: opNames[in.op], Dst: int(in.dst), Args: args}
	}
	return p
}

// Compile specializes a validated configuration into an Engine.
func Compile(cfg *pisa.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("linerate: %w", err)
	}
	nf, ns := len(cfg.Fields), len(cfg.States)
	g := cfg.Grid
	// About 16 operators per grid point survive folding, most of them dead.
	b := &builder{w: g.WordWidth, nIn: int32(nf + ns), nodes: make([]node, 0, 16*g.Stages*g.Width)}
	in := make([]val, nf+ns)
	for i := range in {
		in[i] = register(int32(i))
	}
	outFields, outStates := b.grid(cfg, in[:nf], in[nf:])
	e := &Engine{fields: cfg.Fields, states: cfg.States, w: b.w}
	b.link(e, outFields, outStates)
	return e, nil
}

// imuxNames are the stateful ALU's input-mux holes, per packet operand.
var imuxNames = [...]string{"imux0", "imux1"}

// grid pushes symbolic fields and states through the configuration, as
// pisa.Datapath does. The ALU bodies run through alu's generic
// evaluators; the plumbing between them — field allocation, input and
// output muxes, salu_active guards — is all hole constants, so it
// resolves here to a choice of value, through word.Width.SelIdx (the
// concrete meaning of arith.Select) and Datapath's last-indicator-wins
// allocation. An ALU no output mux selects and no state write-back needs
// is not evaluated: the walk in link would drop it anyway.
func (b *builder) grid(cfg *pisa.Config, fields, states []val) (outFields, outStates []val) {
	g, h, w := cfg.Grid, cfg.Values, cfg.Grid.WordWidth
	// Raw, not truncated: Datapath feeds hole values into the arithmetic
	// unmasked and lets each operation mask its result.
	lift := func(m map[string]uint64) map[string]val {
		out := make(map[string]val, len(m))
		for k, v := range m {
			out[k] = con(v)
		}
		return out
	}
	cur := make([]val, g.Width)
	for j := range cur {
		cur[j] = con(0)
		if h.FieldAlloc == nil && j < len(fields) {
			cur[j] = fields[j]
		}
		for f := range h.FieldAlloc {
			if word.Truthy(h.FieldAlloc[f][j]) {
				cur[j] = fields[f]
			}
		}
	}
	ns := g.StatefulALU.NumStates()
	state := make([]val, g.StateSlots())
	for i := range state {
		state[i] = con(0)
		if i < len(states) {
			state[i] = states[i]
		}
	}
	pkt := make([]val, g.StatefulALU.NumPacketOperands())
	stIn, newSt := make([]val, ns), make([]val, ns)
	for i := 0; i < g.Stages; i++ {
		sel := make([]int, g.Width) // output mux j's choice; g.Width is its stateless ALU
		selected := make([]bool, g.Width+1)
		for j := range sel {
			sel[j] = w.SelIdx(h.OMux[i][j], g.Width+1)
			selected[sel[j]] = true
		}
		sfOut := make([]val, g.Width)
		for j := 0; j < g.Width; j++ {
			active := w.Eq(h.SaluActive[i][j], 1) != 0
			if !active && !selected[j] {
				continue
			}
			for k := range pkt {
				pkt[k] = cur[w.SelIdx(h.Stateful[i][j][imuxNames[k]], g.Width)]
			}
			for k := range stIn {
				stIn[k] = con(0)
				if active {
					stIn[k] = state[j*ns+k]
				}
			}
			sfOut[j] = alu.EvalStatefulInto[val](b, g.StatefulALU, lift(h.Stateful[i][j]), stIn, pkt, newSt)
			if active {
				copy(state[j*ns:], newSt)
			}
		}
		next := make([]val, g.Width)
		for j := range next {
			if sel[j] < g.Width {
				next[j] = sfOut[sel[j]]
				continue
			}
			sl := h.Stateless[i][j]
			next[j] = alu.EvalStateless[val](b, lift(sl),
				cur[w.SelIdx(sl["imux1"], g.Width)], cur[w.SelIdx(sl["imux2"], g.Width)])
		}
		cur = next
	}
	outFields = make([]val, len(fields))
	for f := range outFields {
		outFields[f] = con(0)
		if h.FieldAlloc == nil {
			outFields[f] = cur[f]
		}
		for j := range cur {
			if h.FieldAlloc != nil && word.Truthy(h.FieldAlloc[f][j]) {
				outFields[f] = cur[j]
			}
		}
	}
	return outFields, state[:len(states)]
}

// link builds e's program from the nodes the outputs read. A post-order
// walk from the outputs (fields, then states) reaches exactly the live
// nodes (dead-code elimination) and hash-conses each on its opcode and
// its operands' registers (common-subexpression elimination), so the
// program depends only on what the outputs compute, not on the order the
// grid produced it in. Registers are numbered constants first (ascending
// value), then inputs (slot order), then results (schedule order).
func (b *builder) link(e *Engine, outFields, outStates []val) {
	// Name the outputs first: one may be a constant no operator used.
	roots := make([]int32, 0, len(outFields)+len(outStates))
	for _, v := range slices.Concat(outFields, outStates) {
		roots = append(roots, b.operand(v))
	}
	// The walk names each value by an id: an input keeps its slot, and a
	// constant or an instruction result takes the next id when first
	// reached.
	next := b.nIn
	constID := make([]int32, len(b.consts))
	nodeID := make([]int32, len(b.nodes))
	for _, ids := range [][]int32{constID, nodeID} {
		for i := range ids {
			ids[i] = -1
		}
	}
	memo := map[instr]int32{} // dst zeroed
	loaded := make([]bool, b.nIn)
	var prog []instr
	var visit func(a int32) int32
	visit = func(a int32) int32 {
		if a < 0 {
			k := -1 - a
			if constID[k] < 0 {
				constID[k] = next
				next++
			}
			return constID[k]
		}
		if a < b.nIn {
			loaded[a] = true
			return a
		}
		n := a - b.nIn
		if nodeID[n] >= 0 {
			return nodeID[n]
		}
		nd := b.nodes[n]
		if nd.op == opMux {
			// A mux whose arms are one value is that value; its
			// condition is never reached.
			if t := visit(nd.args[1]); t == visit(nd.args[2]) {
				nodeID[n] = t
				return t
			}
		}
		ops := [3]int32{-1, -1, -1}
		for i := range arity[nd.op] {
			ops[i] = visit(nd.args[i])
		}
		in := instr{op: nd.op, a: ops[0], b: ops[1], c: ops[2]}
		id, ok := memo[in]
		if !ok {
			id = next
			next++
			memo[in] = id
			in.dst = id
			prog = append(prog, in)
		}
		nodeID[n] = id
		return id
	}
	outs := make([]int32, len(roots))
	for i, a := range roots {
		outs[i] = visit(a)
	}

	reg := make([]int32, next)
	for i := range reg {
		reg[i] = -1
	}
	number := func(id int32) int32 {
		reg[id] = int32(e.nregs)
		e.nregs++
		return reg[id]
	}
	var live []int
	for k, id := range constID {
		if id >= 0 {
			live = append(live, k)
		}
	}
	slices.SortFunc(live, func(x, y int) int { return cmp.Compare(b.consts[x], b.consts[y]) })
	for _, k := range live {
		number(constID[k])
		e.consts = append(e.consts, b.consts[k])
	}
	nf := int32(len(e.fields))
	for id := range b.nIn {
		if !loaded[id] {
			continue
		}
		if id < nf {
			e.fieldIn = append(e.fieldIn, load{src: id, dst: number(id)})
		} else {
			e.stateIn = append(e.stateIn, load{src: id - nf, dst: number(id)})
		}
	}
	for i := range prog {
		number(prog[i].dst)
	}
	at := func(id int32) int32 {
		if id < 0 {
			return id
		}
		return reg[id]
	}
	e.prog = make([]instr, len(prog))
	for i, in := range prog {
		e.prog[i] = instr{op: in.op, dst: reg[in.dst], a: at(in.a), b: at(in.b), c: at(in.c)}
	}
	for i, id := range outs {
		if i < len(outFields) {
			e.fieldOut = append(e.fieldOut, reg[id])
		} else {
			e.stateOut = append(e.stateOut, reg[id])
		}
	}
}

// Buf is one goroutine's register file. Engines share; Bufs don't.
type Buf struct {
	regs []uint64
}

// NewBuf allocates a register file for the engine, constants preloaded.
func (e *Engine) NewBuf() *Buf {
	regs := make([]uint64, e.nregs)
	copy(regs, e.consts)
	return &Buf{regs: regs}
}

// ExecInto runs one packet transaction: fields (len NumFields) and states
// (len NumStates) are truncated to the datapath width on entry and
// overwritten with the outputs. Bit-identical to pisa.Config.Exec;
// allocation-free.
func (e *Engine) ExecInto(b *Buf, fields, states []uint64) { e.run(b, fields, fields, states) }

// run is ExecInto reading the packet's fields from in and writing its
// outputs to out, which may alias in.
func (e *Engine) run(b *Buf, in, out, states []uint64) {
	w := e.w
	r := b.regs
	for _, l := range e.fieldIn {
		r[l.dst] = w.Trunc(in[l.src])
	}
	for _, l := range e.stateIn {
		r[l.dst] = w.Trunc(states[l.src])
	}
	exec(w, e.prog, r)
	for f, src := range e.fieldOut {
		out[f] = r[src]
	}
	for s, src := range e.stateOut {
		states[s] = r[src]
	}
}
