// Package bpf models a restricted eBPF-style register machine as a second
// compile target for the synthesis stack, after K2 ("Synthesizing Safe and
// Efficient Kernel Extensions for Packet Processing"), which applies the
// paper's CEGIS playbook to BPF bytecode instead of a PISA grid.
//
// The machine is a bounded straight-line program of N instruction slots
// over a fixed register file. Packet fields live in registers (field i
// enters and leaves in register i); per-flow state lives in a map,
// accessed by dedicated map-load/map-store slots — mirroring how real
// eBPF programs keep flow state in a BPF map and packet data in
// registers. Every slot's opcode and operand selectors are synthesis
// holes; a slot can also be a no-op, so feasibility is monotone in the
// slot count and the core's iterative-deepening search minimizes program
// length the way it minimizes PISA stages (and superopt descends it
// further, K2-style).
//
// The same generic Program function renders the machine symbolically
// (V=circuit.Word, for sketch instantiation and CEGIS verification) and
// concretely (V=uint64, the test reference for Config.NewExecutor, whose
// slot semantics come from the same evalOp) — the single-source-of-truth
// idiom used throughout the repo: the verified semantics and the executed
// semantics cannot drift.
package bpf

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/word"
)

// Opcode names one slot operation. The set is a deliberately restricted
// eBPF flavor: two-address ALU ops (dst op= src), immediate forms for
// the ops the Domino frontend generates constants into, signed
// comparisons matching the frontend's semantics, a conditional select
// (the branch-free rendering of if/else, as eBPF programs use csel-style
// patterns to stay verifier-friendly), and map load/store for state.
type Opcode uint8

const (
	OpNop    Opcode = iota // no operation (slot unused)
	OpMov                  // dst = src
	OpMovImm               // dst = imm
	OpAdd                  // dst = dst + src
	OpSub                  // dst = dst - src
	OpMul                  // dst = dst * src
	OpAnd                  // dst = dst & src
	OpOr                   // dst = dst | src
	OpXor                  // dst = dst ^ src
	OpNeg                  // dst = -dst
	OpNot                  // dst = ^dst
	OpAddImm               // dst = dst + imm
	OpSubImm               // dst = dst - imm
	OpEq                   // dst = (dst == src)
	OpNe                   // dst = (dst != src)
	OpLt                   // dst = (dst < src), signed
	OpGe                   // dst = (dst >= src), signed
	OpEqImm                // dst = (dst == imm)
	OpNeImm                // dst = (dst != imm)
	OpLtImm                // dst = (dst < imm), signed
	OpGeImm                // dst = (dst >= imm), signed
	OpSel                  // dst = dst != 0 ? src : imm
	OpLdMap                // dst = map[cell]
	OpStMap                // map[cell] = src (no register write)

	NumOpcodes = int(OpStMap) + 1
)

// OpcodeBits is the width of the opcode selector hole.
const OpcodeBits = 5

var opcodeNames = [NumOpcodes]string{
	"nop", "mov", "movi", "add", "sub", "mul", "and", "or", "xor",
	"neg", "not", "addi", "subi", "eq", "ne", "lt", "ge",
	"eqi", "nei", "lti", "gei", "sel", "ld", "st",
}

func (o Opcode) String() string {
	if int(o) < NumOpcodes {
		return opcodeNames[o]
	}
	return fmt.Sprintf("op%d", int(o))
}

// writesRegister reports whether the opcode writes its destination
// register. Only map stores do not; OpNop "writes" its own old value
// back, which keeps the writeback predicate a single comparison.
func (o Opcode) writesRegister() bool { return o != OpStMap }

// usesMap reports whether the opcode touches the state map.
func (o Opcode) usesMap() bool { return o == OpLdMap || o == OpStMap }

// FullOpcodeMask allows every opcode.
const FullOpcodeMask uint32 = 1<<NumOpcodes - 1

// MachineSpec describes the register machine: how many instruction
// slots, how many general-purpose registers, the datapath width, the
// immediate width, and which opcodes synthesis may use.
type MachineSpec struct {
	// Slots is the straight-line program length (the size axis the
	// deepening search minimizes).
	Slots int `json:"slots"`
	// Regs is the register-file size. Zero means "derive from the
	// program": numFields + 2 scratch registers, minimum 3.
	Regs int `json:"regs"`
	// WordWidth is the datapath width in bits.
	WordWidth word.Width `json:"word_width"`
	// ConstBits is the immediate-operand width; immediates are
	// zero-extended (then truncated by the datapath width).
	ConstBits int `json:"const_bits"`
	// OpcodeMask restricts the opcode vocabulary; zero means all.
	OpcodeMask uint32 `json:"opcode_mask,omitempty"`
}

// RegsFor resolves the register-file size for a program with the given
// field count: Spec.Regs if set, else numFields plus two scratch
// registers (minimum 3, so even a one-field program has room for an
// intermediate and a comparison flag).
func (m MachineSpec) RegsFor(numFields int) int {
	if m.Regs > 0 {
		return m.Regs
	}
	r := numFields + 2
	if r < 3 {
		r = 3
	}
	return r
}

// EffectiveOpcodeMask resolves the zero-means-all default.
func (m MachineSpec) EffectiveOpcodeMask() uint32 {
	if m.OpcodeMask == 0 {
		return FullOpcodeMask
	}
	return m.OpcodeMask & FullOpcodeMask
}

// Validate checks the spec's internal consistency.
func (m MachineSpec) Validate() error {
	if m.Slots < 0 {
		return fmt.Errorf("bpf: negative slot count %d", m.Slots)
	}
	if m.Regs < 0 {
		return fmt.Errorf("bpf: negative register count %d", m.Regs)
	}
	if err := m.WordWidth.Validate(); err != nil {
		return err
	}
	if m.ConstBits < 1 || m.ConstBits > 16 {
		return fmt.Errorf("bpf: const bits %d out of range [1,16]", m.ConstBits)
	}
	if m.EffectiveOpcodeMask() == 0 {
		return fmt.Errorf("bpf: opcode mask allows no opcodes")
	}
	return nil
}

// Instr is one decoded instruction slot.
type Instr struct {
	Op  Opcode `json:"op"`
	Dst int    `json:"dst"`
	Src int    `json:"src"`
	Imm uint64 `json:"imm"`
	// Cell indexes the state map for OpLdMap/OpStMap.
	Cell int `json:"cell"`
}

// String renders the instruction in a compact asm-like form.
func (in Instr) String() string {
	switch in.Op {
	case OpNop:
		return "nop"
	case OpMov:
		return fmt.Sprintf("r%d = r%d", in.Dst, in.Src)
	case OpMovImm:
		return fmt.Sprintf("r%d = %d", in.Dst, in.Imm)
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor:
		sym := map[Opcode]string{OpAdd: "+", OpSub: "-", OpMul: "*", OpAnd: "&", OpOr: "|", OpXor: "^"}[in.Op]
		return fmt.Sprintf("r%d %s= r%d", in.Dst, sym, in.Src)
	case OpNeg:
		return fmt.Sprintf("r%d = -r%d", in.Dst, in.Dst)
	case OpNot:
		return fmt.Sprintf("r%d = ^r%d", in.Dst, in.Dst)
	case OpAddImm:
		return fmt.Sprintf("r%d += %d", in.Dst, in.Imm)
	case OpSubImm:
		return fmt.Sprintf("r%d -= %d", in.Dst, in.Imm)
	case OpEq, OpNe, OpLt, OpGe:
		sym := map[Opcode]string{OpEq: "==", OpNe: "!=", OpLt: "<s", OpGe: ">=s"}[in.Op]
		return fmt.Sprintf("r%d = (r%d %s r%d)", in.Dst, in.Dst, sym, in.Src)
	case OpEqImm, OpNeImm, OpLtImm, OpGeImm:
		sym := map[Opcode]string{OpEqImm: "==", OpNeImm: "!=", OpLtImm: "<s", OpGeImm: ">=s"}[in.Op]
		return fmt.Sprintf("r%d = (r%d %s %d)", in.Dst, in.Dst, sym, in.Imm)
	case OpSel:
		return fmt.Sprintf("r%d = r%d ? r%d : %d", in.Dst, in.Dst, in.Src, in.Imm)
	case OpLdMap:
		return fmt.Sprintf("r%d = m[%d]", in.Dst, in.Cell)
	case OpStMap:
		return fmt.Sprintf("m[%d] = r%d", in.Cell, in.Src)
	}
	return fmt.Sprintf("op%d r%d r%d %d m%d", int(in.Op), in.Dst, in.Src, in.Imm, in.Cell)
}

// Holes carries one value per slot selector. The same structure holds
// symbolic hole words during synthesis and concrete values after decode
// — the direct analogue of pisa.Holes.
type Holes[V any] struct {
	Op   []V
	Dst  []V
	Src  []V
	Imm  []V
	Cell []V
}

// regBits returns the selector width for an n-entry register file or map
// (at least one bit, so a selector word always exists).
func regBits(n int) int {
	if n <= 1 {
		return 1
	}
	b := 0
	for 1<<uint(b) < n {
		b++
	}
	return b
}

// NewHoles allocates one hole per slot selector via mk, in a fixed
// creation order (slot-major). data marks value holes (immediates) whose
// truncation at narrow synthesis widths is sound; selector holes are
// control and must never truncate.
func NewHoles[V any](slots, regs, cells, constBits int, mk func(name string, bits int, data bool) V) *Holes[V] {
	h := &Holes[V]{
		Op:   make([]V, slots),
		Dst:  make([]V, slots),
		Src:  make([]V, slots),
		Imm:  make([]V, slots),
		Cell: make([]V, slots),
	}
	rb := regBits(regs)
	cb := regBits(cells)
	for s := 0; s < slots; s++ {
		h.Op[s] = mk(fmt.Sprintf("slot_%d_op", s), OpcodeBits, false)
		h.Dst[s] = mk(fmt.Sprintf("slot_%d_dst", s), rb, false)
		h.Src[s] = mk(fmt.Sprintf("slot_%d_src", s), rb, false)
		h.Imm[s] = mk(fmt.Sprintf("slot_%d_imm", s), constBits, true)
		h.Cell[s] = mk(fmt.Sprintf("slot_%d_cell", s), cb, false)
	}
	return h
}

// MapHoles converts a hole structure between value domains.
func MapHoles[A, B any](h *Holes[A], f func(A) B) *Holes[B] {
	conv := func(xs []A) []B {
		out := make([]B, len(xs))
		for i, x := range xs {
			out[i] = f(x)
		}
		return out
	}
	return &Holes[B]{
		Op:   conv(h.Op),
		Dst:  conv(h.Dst),
		Src:  conv(h.Src),
		Imm:  conv(h.Imm),
		Cell: conv(h.Cell),
	}
}

// evalOp computes one opcode's result value given the selected operand
// values. Map stores return the (unused) destination value; their effect
// happens through the cell update in Program.
func evalOp[V any](a arith.Arith[V], op Opcode, dstVal, srcVal, imm, cellVal V) V {
	switch op {
	case OpNop:
		return dstVal
	case OpMov:
		return srcVal
	case OpMovImm:
		return imm
	case OpAdd:
		return a.Add(dstVal, srcVal)
	case OpSub:
		return a.Sub(dstVal, srcVal)
	case OpMul:
		return a.Mul(dstVal, srcVal)
	case OpAnd:
		return a.BitAnd(dstVal, srcVal)
	case OpOr:
		return a.BitOr(dstVal, srcVal)
	case OpXor:
		return a.BitXor(dstVal, srcVal)
	case OpNeg:
		return a.Neg(dstVal)
	case OpNot:
		return a.BitNot(dstVal)
	case OpAddImm:
		return a.Add(dstVal, imm)
	case OpSubImm:
		return a.Sub(dstVal, imm)
	case OpEq:
		return a.Eq(dstVal, srcVal)
	case OpNe:
		return a.Ne(dstVal, srcVal)
	case OpLt:
		return a.Lt(dstVal, srcVal)
	case OpGe:
		return a.Ge(dstVal, srcVal)
	case OpEqImm:
		return a.Eq(dstVal, imm)
	case OpNeImm:
		return a.Ne(dstVal, imm)
	case OpLtImm:
		return a.Lt(dstVal, imm)
	case OpGeImm:
		return a.Ge(dstVal, imm)
	case OpSel:
		return a.Mux(dstVal, srcVal, imm)
	case OpLdMap:
		return cellVal
	case OpStMap:
		return dstVal
	}
	panic(fmt.Sprintf("bpf: unknown opcode %d", int(op)))
}

// Program pushes one packet transaction through the machine: fields is
// the packet's field vector in allocation order (field i occupies
// register i on entry and exit), states the state-map cell vector. regs
// is the register-file size; scratch registers start at zero. Holes
// supply every slot's selectors — symbolic words during synthesis,
// concrete values during execution — and must already be at the
// evaluation width (widened or truncated consistently on both paths).
func Program[V any](a arith.Arith[V], regs int, h *Holes[V], fields, states []V) (outFields, outStates []V) {
	if len(fields) > regs {
		panic(fmt.Sprintf("bpf: %d fields exceed %d registers", len(fields), regs))
	}
	zero := a.ConstInt(0)
	file := make([]V, regs)
	copy(file, fields)
	for i := len(fields); i < regs; i++ {
		file[i] = zero
	}
	cells := append([]V(nil), states...)

	for s := range h.Op {
		op, dst, src, imm, cell := h.Op[s], h.Dst[s], h.Src[s], h.Imm[s], h.Cell[s]
		dstVal := arith.Select(a, dst, file...)
		srcVal := arith.Select(a, src, file...)
		cellVal := zero
		if len(cells) > 0 {
			cellVal = arith.Select(a, cell, cells...)
		}

		choices := make([]V, NumOpcodes)
		for v := 0; v < NumOpcodes; v++ {
			choices[v] = evalOp(a, Opcode(v), dstVal, srcVal, imm, cellVal)
		}
		result := arith.Select(a, op, choices...)

		// Register writeback: every opcode except map-store writes its
		// destination (OpNop writes its own old value, an identity).
		writes := a.Ne(op, a.ConstInt(int64(OpStMap)))
		for j := range file {
			hit := a.LAnd(writes, a.Eq(dst, a.ConstInt(int64(j))))
			file[j] = a.Mux(hit, result, file[j])
		}
		// Map store: cells[cell] = srcVal when the opcode is OpStMap.
		if len(cells) > 0 {
			isSt := a.Eq(op, a.ConstInt(int64(OpStMap)))
			for c := range cells {
				hit := a.LAnd(isSt, a.Eq(cell, a.ConstInt(int64(c))))
				cells[c] = a.Mux(hit, srcVal, cells[c])
			}
		}
	}
	return file[:len(fields)], cells
}

// Config is a fully synthesized BPF program: the machine description,
// the variable allocation (field i ↔ register i, state j ↔ map cell j),
// and one decoded instruction per slot.
type Config struct {
	Spec   MachineSpec `json:"spec"`
	Fields []string    `json:"fields"`
	States []string    `json:"states"`
	Instrs []Instr     `json:"instrs"`
}

// Target implements backend.Config.
func (c *Config) Target() string { return "bpf" }

// Vars implements backend.Config.
func (c *Config) Vars() (fields, states []string) { return c.Fields, c.States }

// RunWidth implements backend.Config.
func (c *Config) RunWidth() word.Width { return c.Spec.WordWidth }

// Validate checks structural consistency: spec validity, capacity, and
// every instruction's selectors in range and opcode allowed.
func (c *Config) Validate() error {
	if err := c.Spec.Validate(); err != nil {
		return err
	}
	regs := c.Spec.RegsFor(len(c.Fields))
	if len(c.Fields) > regs {
		return fmt.Errorf("bpf: %d fields exceed %d registers", len(c.Fields), regs)
	}
	if len(c.Instrs) != c.Spec.Slots {
		return fmt.Errorf("bpf: %d instructions for %d slots", len(c.Instrs), c.Spec.Slots)
	}
	seen := map[string]bool{}
	for _, n := range append(append([]string{}, c.Fields...), c.States...) {
		if n == "" {
			return fmt.Errorf("bpf: empty variable name")
		}
		if seen[n] {
			return fmt.Errorf("bpf: duplicate variable %q", n)
		}
		seen[n] = true
	}
	mask := c.Spec.EffectiveOpcodeMask()
	cells := len(c.States)
	for i, in := range c.Instrs {
		if int(in.Op) >= NumOpcodes {
			return fmt.Errorf("bpf: slot %d: unknown opcode %d", i, int(in.Op))
		}
		if mask&(1<<uint(in.Op)) == 0 {
			return fmt.Errorf("bpf: slot %d: opcode %s not in mask", i, in.Op)
		}
		if in.Op.usesMap() && cells == 0 {
			return fmt.Errorf("bpf: slot %d: %s with no state cells", i, in.Op)
		}
		if in.Dst < 0 || in.Dst >= regs {
			return fmt.Errorf("bpf: slot %d: dst r%d out of range [0,%d)", i, in.Dst, regs)
		}
		if in.Src < 0 || in.Src >= regs {
			return fmt.Errorf("bpf: slot %d: src r%d out of range [0,%d)", i, in.Src, regs)
		}
		maxCell := cells
		if maxCell < 1 {
			maxCell = 1
		}
		if in.Cell < 0 || in.Cell >= maxCell {
			return fmt.Errorf("bpf: slot %d: cell m%d out of range [0,%d)", i, in.Cell, maxCell)
		}
		if in.Imm != word.Width(c.Spec.ConstBits).Trunc(in.Imm) {
			return fmt.Errorf("bpf: slot %d: imm %d exceeds %d bits", i, in.Imm, c.Spec.ConstBits)
		}
	}
	return nil
}

// holesAt renders the instruction stream as a concrete hole structure at
// width w. Immediates truncate to w (matching the symbolic widen), so
// concrete and symbolic evaluation alias identically at any width.
func (c *Config) holesAt(w word.Width) *Holes[uint64] {
	n := len(c.Instrs)
	h := &Holes[uint64]{
		Op:   make([]uint64, n),
		Dst:  make([]uint64, n),
		Src:  make([]uint64, n),
		Imm:  make([]uint64, n),
		Cell: make([]uint64, n),
	}
	for i, in := range c.Instrs {
		h.Op[i] = uint64(in.Op)
		h.Dst[i] = uint64(in.Dst)
		h.Src[i] = uint64(in.Src)
		h.Imm[i] = w.Trunc(in.Imm)
		h.Cell[i] = uint64(in.Cell)
	}
	return h
}

// WithRunWidth implements backend.Config: a copy of the program that runs
// at width w.
func (c *Config) WithRunWidth(w word.Width) backend.Config {
	cp := *c
	cp.Spec.WordWidth = w
	return &cp
}

// Exec runs one packet transaction over maps; see backend.Exec.
func (c *Config) Exec(pkt, state map[string]uint64) (outPkt, outState map[string]uint64) {
	return backend.Exec(c, pkt, state)
}

// slotPlan is one instruction decoded for execution at one width: the
// opcode and operand indices Program's selection chains pick, and the
// truncated selector encodings its writeback and store chains compare.
type slotPlan struct {
	op              Opcode
	dst, src, cell  int
	imm             uint64
	dstSel, cellSel uint64
	writes, stores  bool
}

// NewExecutor implements backend.Config. It decodes the instruction
// stream once at the spec's width and returns an allocation-free executor
// that matches Program over uint64 bit for bit. At widths narrower than a
// selector hole, truncated selectors alias: the operand chains then pick
// the first matching index (word.Width.SelIdx), and the writeback and
// store chains write every register or cell whose index aliases the
// selector, which is why they scan the whole file.
func (c *Config) NewExecutor() func(fields, states []uint64) {
	w := c.Spec.WordWidth
	var a arith.Arith[uint64] = arith.Conc{W: w}
	cells := len(c.States)
	file := make([]uint64, c.Spec.RegsFor(len(c.Fields)))
	stMap := w.Trunc(uint64(OpStMap))
	plan := make([]slotPlan, len(c.Instrs))
	for i, in := range c.Instrs {
		p := slotPlan{
			op:      Opcode(w.SelIdx(uint64(in.Op), NumOpcodes)),
			dst:     w.SelIdx(uint64(in.Dst), len(file)),
			src:     w.SelIdx(uint64(in.Src), len(file)),
			imm:     w.Trunc(in.Imm),
			dstSel:  w.Trunc(uint64(in.Dst)),
			cellSel: w.Trunc(uint64(in.Cell)),
			writes:  w.Trunc(uint64(in.Op)) != stMap,
			stores:  cells > 0 && w.Trunc(uint64(in.Op)) == stMap,
		}
		if cells > 0 {
			p.cell = w.SelIdx(uint64(in.Cell), cells)
		}
		plan[i] = p
	}
	return func(fields, states []uint64) {
		for i := range file {
			file[i] = 0
			if i < len(fields) {
				file[i] = w.Trunc(fields[i])
			}
		}
		for i := range states {
			states[i] = w.Trunc(states[i])
		}
		for _, p := range plan {
			dstVal, srcVal := file[p.dst], file[p.src]
			var cellVal uint64
			if cells > 0 {
				cellVal = states[p.cell]
			}
			r := evalOp(a, p.op, dstVal, srcVal, p.imm, cellVal)
			if p.writes {
				for j := range file {
					if w.Trunc(uint64(j)) == p.dstSel {
						file[j] = r
					}
				}
			}
			if p.stores {
				for k := range states {
					if w.Trunc(uint64(k)) == p.cellSel {
						states[k] = srcVal
					}
				}
			}
		}
		copy(fields, file)
	}
}

// String renders the program as an annotated asm listing.
func (c *Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "bpf program: %d slots, %d regs, width %d, imm %d bits\n",
		c.Spec.Slots, c.Spec.RegsFor(len(c.Fields)), c.Spec.WordWidth, c.Spec.ConstBits)
	for i, f := range c.Fields {
		fmt.Fprintf(&b, "  r%-2d = pkt.%s\n", i, f)
	}
	for i, s := range c.States {
		fmt.Fprintf(&b, "  m[%d] = %s\n", i, s)
	}
	live := 0
	for _, in := range c.Instrs {
		if in.Op != OpNop {
			live++
		}
	}
	fmt.Fprintf(&b, "  ; %d live instructions\n", live)
	for i, in := range c.Instrs {
		fmt.Fprintf(&b, "  %2d: %s\n", i, in)
	}
	return b.String()
}

// LiveInstrs counts non-nop slots — the instruction-count metric
// superopt minimizes.
func (c *Config) LiveInstrs() int {
	n := 0
	for _, in := range c.Instrs {
		if in.Op != OpNop {
			n++
		}
	}
	return n
}

// SortedVars returns the fields and states in sorted order (for
// deterministic rendering in emitters and reports).
func (c *Config) SortedVars() (fields, states []string) {
	fields = append([]string(nil), c.Fields...)
	states = append([]string(nil), c.States...)
	sort.Strings(fields)
	sort.Strings(states)
	return fields, states
}
