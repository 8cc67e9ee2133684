// Package circuit builds bit-vector combinational circuits and bit-blasts
// them to CNF for the SAT solver.
//
// Chipmunk's synthesis problem (paper §2.3, Equation 1) is a quantified
// formula over bit-vectors: does there exist a hole assignment c such that
// for all inputs x the sketch equals the specification? SKETCH decides the
// two CEGIS sub-problems (Equations 2 and 3) by bit-blasting to SAT; this
// package performs the same role. A Builder accumulates a gate DAG with
// structural hashing and aggressive constant folding; words are
// little-endian vectors of Bits with the same two's-complement semantics as
// internal/word (the reference semantics for the interpreter and the PISA
// simulator), which is verified by property tests cross-checking Eval
// against word operations.
//
// Gates are converted to clauses via the Tseitin transformation, restricted
// to the cone of influence of the asserted outputs, so large sketches with
// unused datapath pieces do not bloat the CNF.
package circuit

import (
	"fmt"
	"strings"

	"repro/internal/sat"
	"repro/internal/word"
)

// Bit identifies a node in the circuit DAG. The two constants False and
// True are predefined; inputs and gates are numbered from 2.
type Bit int32

// Predefined constant bits.
const (
	False Bit = 0
	True  Bit = 1
)

type gateOp uint8

const (
	opConst gateOp = iota // nodes 0 and 1 only
	opInput
	opAnd
	opXor
	opNot
	opMux // a ? b : c
)

// gate is one DAG node: 16 bytes and pointer-free, so the gate array is
// never scanned by the garbage collector.
type gate struct {
	op      gateOp
	a, b, c Bit
}

// Word is a little-endian vector of bits representing a two's-complement
// integer of len(Word) bits.
type Word []Bit

// Builder accumulates a circuit. The zero value is not usable; call New.
type Builder struct {
	gates []gate
	// table is the structural hash: an open-addressed, linearly probed
	// set of interned gate ids keyed by (op, a, b, c), where False (0)
	// marks an empty slot — constants are never interned. Its length is a
	// power of two kept at least twice the number of entries.
	table   []Bit
	entries int
	inputs  []Bit
}

// grow returns xs with room for n more elements, doubling the capacity
// when it runs out (append grows large slices by only about 1.25x, which
// copies an ever-growing gate array several times over).
func grow[T any](xs []T, n int) []T {
	if len(xs)+n <= cap(xs) {
		return xs
	}
	nx := make([]T, len(xs), max(2*cap(xs), len(xs)+n, 64))
	copy(nx, xs)
	return nx
}

// minTable is the structural hash's initial slot count.
const minTable = 256

// New returns an empty circuit builder.
func New() *Builder {
	b := &Builder{table: make([]Bit, minTable)}
	b.gates = append(b.gates,
		gate{op: opConst}, // False
		gate{op: opConst}, // True
	)
	return b
}

// Reset returns the builder to exactly the state New produces — only the
// two constants, no inputs, an empty structural hash — while keeping the
// capacity of its arrays. Gates built after a Reset are numbered exactly
// as in a fresh builder.
func (b *Builder) Reset() {
	b.gates = b.gates[:2]
	b.inputs = b.inputs[:0]
	clear(b.table)
	b.entries = 0
}

// NumGates returns the number of nodes in the DAG (including constants and
// inputs), a proxy for sketch size used in evaluation reports.
func (b *Builder) NumGates() int { return len(b.gates) }

// Input allocates a fresh single-bit input. The name documents the call
// site only; the builder does not store it.
func (b *Builder) Input(name string) Bit {
	bit := Bit(len(b.gates))
	b.gates = append(b.gates, gate{op: opInput})
	b.inputs = append(b.inputs, bit)
	return bit
}

// InputWord allocates a w-bit input word (name documents the call site,
// as for Input).
func (b *Builder) InputWord(name string, w word.Width) Word {
	bits := make(Word, w)
	for i := range bits {
		bits[i] = b.Input(name)
	}
	return bits
}

// ConstBit returns the constant bit for v.
func ConstBit(v bool) Bit {
	if v {
		return True
	}
	return False
}

// ConstWord returns the w-bit constant with value v (truncated).
func (b *Builder) ConstWord(v uint64, w word.Width) Word {
	bits := make(Word, w)
	for i := range bits {
		bits[i] = ConstBit(v&(1<<uint(i)) != 0)
	}
	return bits
}

// hashGate mixes a gate's key into a table index seed.
func hashGate(g gate) uint32 {
	h := uint32(g.op)*0x9e3779b1 ^ uint32(g.a)
	h = h*0x85ebca6b ^ uint32(g.b)
	h = h*0xc2b2ae35 ^ uint32(g.c)
	return h ^ h>>15
}

// intern returns the existing gate structurally equal to g, or appends g.
func (b *Builder) intern(g gate) Bit {
	mask := uint32(len(b.table) - 1)
	i := hashGate(g) & mask
	for {
		id := b.table[i]
		if id == False {
			break
		}
		if b.gates[id] == g {
			return id
		}
		i = (i + 1) & mask
	}
	bit := Bit(len(b.gates))
	b.gates = append(grow(b.gates, 1), g)
	b.table[i] = bit
	b.entries++
	if 2*b.entries > len(b.table) {
		b.growTable()
	}
	return bit
}

// growTable doubles the structural hash and reinserts every interned gate
// straight from the gate array (inputs and constants are never interned).
func (b *Builder) growTable() {
	b.table = make([]Bit, 2*len(b.table))
	mask := uint32(len(b.table) - 1)
	for id := 2; id < len(b.gates); id++ {
		g := b.gates[id]
		if g.op == opInput {
			continue
		}
		i := hashGate(g) & mask
		for b.table[i] != False {
			i = (i + 1) & mask
		}
		b.table[i] = Bit(id)
	}
}

// Not returns the complement of a.
func (b *Builder) Not(a Bit) Bit {
	switch a {
	case False:
		return True
	case True:
		return False
	}
	// Double negation elimination.
	if g := b.gates[a]; g.op == opNot {
		return g.a
	}
	return b.intern(gate{op: opNot, a: a})
}

// And returns a AND b with constant folding and idempotence rules.
func (b *Builder) And(x, y Bit) Bit {
	if x == False || y == False {
		return False
	}
	if x == True {
		return y
	}
	if y == True {
		return x
	}
	if x == y {
		return x
	}
	if b.Not(x) == y {
		return False
	}
	if x > y { // canonical operand order for structural hashing
		x, y = y, x
	}
	return b.intern(gate{op: opAnd, a: x, b: y})
}

// Or returns a OR b (built from And/Not, De Morgan).
func (b *Builder) Or(x, y Bit) Bit {
	return b.Not(b.And(b.Not(x), b.Not(y)))
}

// Xor returns a XOR b.
func (b *Builder) Xor(x, y Bit) Bit {
	if x == False {
		return y
	}
	if y == False {
		return x
	}
	if x == True {
		return b.Not(y)
	}
	if y == True {
		return b.Not(x)
	}
	if x == y {
		return False
	}
	if b.Not(x) == y {
		return True
	}
	if x > y {
		x, y = y, x
	}
	return b.intern(gate{op: opXor, a: x, b: y})
}

// Mux returns sel ? t : f.
func (b *Builder) Mux(sel, t, f Bit) Bit {
	if sel == True {
		return t
	}
	if sel == False {
		return f
	}
	if t == f {
		return t
	}
	if t == True && f == False {
		return sel
	}
	if t == False && f == True {
		return b.Not(sel)
	}
	return b.intern(gate{op: opMux, a: sel, b: t, c: f})
}

// Implies returns NOT a OR b.
func (b *Builder) Implies(x, y Bit) Bit { return b.Or(b.Not(x), y) }

// Eq1 returns the single-bit equality a XNOR b.
func (b *Builder) Eq1(x, y Bit) Bit { return b.Not(b.Xor(x, y)) }

// --- Word-level operations -------------------------------------------------

func checkSameWidth(x, y Word) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("circuit: width mismatch %d vs %d", len(x), len(y)))
	}
}

// NotW is the bitwise complement.
func (b *Builder) NotW(x Word) Word {
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Not(x[i])
	}
	return out
}

// AndW is the bitwise AND.
func (b *Builder) AndW(x, y Word) Word {
	checkSameWidth(x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.And(x[i], y[i])
	}
	return out
}

// OrW is the bitwise OR.
func (b *Builder) OrW(x, y Word) Word {
	checkSameWidth(x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Or(x[i], y[i])
	}
	return out
}

// XorW is the bitwise XOR.
func (b *Builder) XorW(x, y Word) Word {
	checkSameWidth(x, y)
	out := make(Word, len(x))
	for i := range x {
		out[i] = b.Xor(x[i], y[i])
	}
	return out
}

// AddW is a ripple-carry adder at width len(x); the carry out is discarded
// (wrapping semantics).
func (b *Builder) AddW(x, y Word) Word {
	checkSameWidth(x, y)
	out := make(Word, len(x))
	carry := False
	for i := range x {
		s := b.Xor(x[i], y[i])
		out[i] = b.Xor(s, carry)
		carry = b.Or(b.And(x[i], y[i]), b.And(s, carry))
	}
	return out
}

// NegW is two's-complement negation.
func (b *Builder) NegW(x Word) Word {
	one := b.ConstWord(1, word.Width(len(x)))
	return b.AddW(b.NotW(x), one)
}

// SubW returns x - y (wrapping).
func (b *Builder) SubW(x, y Word) Word {
	// x + ~y + 1 via ripple carry seeded with 1.
	checkSameWidth(x, y)
	out := make(Word, len(x))
	carry := True
	for i := range x {
		yn := b.Not(y[i])
		s := b.Xor(x[i], yn)
		out[i] = b.Xor(s, carry)
		carry = b.Or(b.And(x[i], yn), b.And(s, carry))
	}
	return out
}

// MulW is a shift-and-add multiplier truncated to the operand width.
func (b *Builder) MulW(x, y Word) Word {
	checkSameWidth(x, y)
	w := word.Width(len(x))
	acc := b.ConstWord(0, w)
	for i := range y {
		// Partial product: (x << i) ANDed with y[i], truncated to w bits.
		pp := make(Word, len(x))
		for j := range pp {
			if j < i {
				pp[j] = False
			} else {
				pp[j] = b.And(x[j-i], y[i])
			}
		}
		acc = b.AddW(acc, pp)
	}
	return acc
}

// MuxW selects t when sel is true, else f, bitwise.
func (b *Builder) MuxW(sel Bit, t, f Word) Word {
	checkSameWidth(t, f)
	out := make(Word, len(t))
	for i := range t {
		out[i] = b.Mux(sel, t[i], f[i])
	}
	return out
}

// EqW returns the single-bit equality of two words.
func (b *Builder) EqW(x, y Word) Bit {
	checkSameWidth(x, y)
	acc := True
	for i := range x {
		acc = b.And(acc, b.Eq1(x[i], y[i]))
	}
	return acc
}

// NonZero returns the C truthiness of a word (OR of all bits).
func (b *Builder) NonZero(x Word) Bit {
	acc := False
	for i := range x {
		acc = b.Or(acc, x[i])
	}
	return acc
}

// UltW returns the unsigned x < y comparison bit.
func (b *Builder) UltW(x, y Word) Bit {
	checkSameWidth(x, y)
	// Subtract and inspect the borrow: x < y iff x - y underflows.
	carry := True
	for i := range x {
		yn := b.Not(y[i])
		s := b.Xor(x[i], yn)
		carry = b.Or(b.And(x[i], yn), b.And(s, carry))
	}
	return b.Not(carry)
}

// SltW returns the signed x < y comparison bit at the word's width.
func (b *Builder) SltW(x, y Word) Bit {
	checkSameWidth(x, y)
	n := len(x)
	sx, sy := x[n-1], y[n-1]
	ult := b.UltW(x, y)
	// Same signs: unsigned comparison is correct. Different signs: x < y iff
	// x is the negative one.
	diff := b.Xor(sx, sy)
	return b.Mux(diff, sx, ult)
}

// SleW returns the signed x <= y bit.
func (b *Builder) SleW(x, y Word) Bit { return b.Not(b.SltW(y, x)) }

// BoolToWord widens a bit to a word with value 0 or 1.
func (b *Builder) BoolToWord(x Bit, w word.Width) Word {
	out := make(Word, w)
	out[0] = x
	for i := 1; i < int(w); i++ {
		out[i] = False
	}
	return out
}

// ShlW is a barrel shifter computing x << y with shift amounts >= width
// yielding zero, matching word.Shl.
func (b *Builder) ShlW(x, y Word) Word {
	return b.shift(x, y, true)
}

// ShrW is the logical right barrel shifter matching word.Shr.
func (b *Builder) ShrW(x, y Word) Word {
	return b.shift(x, y, false)
}

func (b *Builder) shift(x, y Word, left bool) Word {
	w := len(x)
	cur := x
	// Apply each shift-amount bit as a conditional fixed shift.
	for i := 0; i < len(y); i++ {
		amt := 1 << uint(i)
		shifted := make(Word, w)
		for j := 0; j < w; j++ {
			var src int
			if left {
				src = j - amt
			} else {
				src = j + amt
			}
			if src >= 0 && src < w {
				shifted[j] = cur[src]
			} else {
				shifted[j] = False
			}
		}
		if amt >= w {
			// Any set bit at or above log2(w) zeroes the result entirely.
			shifted = b.ConstWord(0, word.Width(w))
		}
		next := make(Word, w)
		for j := 0; j < w; j++ {
			next[j] = b.Mux(y[i], shifted[j], cur[j])
		}
		cur = next
	}
	return cur
}

// --- Concrete evaluation ---------------------------------------------------

// Eval computes the value of each requested bit given concrete input values.
// Inputs not present in the map default to false. It is used by tests to
// cross-check the circuit against the reference word semantics, and by CEGIS
// to evaluate specifications.
func (b *Builder) Eval(inputs map[Bit]bool, outs ...Bit) []bool {
	vals := make([]int8, len(b.gates)) // -1 unknown, 0 false, 1 true
	for i := range vals {
		vals[i] = -1
	}
	vals[False] = 0
	vals[True] = 1
	var eval func(Bit) int8
	eval = func(n Bit) int8 {
		if vals[n] >= 0 {
			return vals[n]
		}
		g := b.gates[n]
		var v int8
		switch g.op {
		case opInput:
			if inputs[n] {
				v = 1
			} else {
				v = 0
			}
		case opAnd:
			v = eval(g.a) & eval(g.b)
		case opXor:
			v = eval(g.a) ^ eval(g.b)
		case opNot:
			v = 1 - eval(g.a)
		case opMux:
			if eval(g.a) == 1 {
				v = eval(g.b)
			} else {
				v = eval(g.c)
			}
		default:
			panic("circuit: eval of const node reached default")
		}
		vals[n] = v
		return v
	}
	out := make([]bool, len(outs))
	for i, o := range outs {
		out[i] = eval(o) == 1
	}
	return out
}

// EvalWord evaluates a word to its uint64 value under the given inputs.
func (b *Builder) EvalWord(inputs map[Bit]bool, w Word) uint64 {
	bits := b.Eval(inputs, w...)
	var v uint64
	for i, bit := range bits {
		if bit {
			v |= 1 << uint(i)
		}
	}
	return v
}

// SetWordInputs assigns the bits of an input word in the given input map.
func SetWordInputs(inputs map[Bit]bool, w Word, v uint64) {
	for i, bit := range w {
		inputs[bit] = v&(1<<uint(i)) != 0
	}
}

// --- Tseitin transformation ------------------------------------------------

// CNF incrementally encodes circuit nodes into a sat.Solver. Only the cone
// of influence of asserted/queried bits is encoded. A CNF may be used for
// several Assert calls against the same solver.
type CNF struct {
	b      *Builder
	solver *sat.Solver
	vars   []sat.Var // per-gate SAT variable; -1 if not yet encoded

	nVars    int // SAT variables this encoder allocated
	nClauses int // clauses this encoder added (Tseitin + assertions)

	// Constraint groups (EnableGroups): assertion clauses are gated by a
	// per-group selector literal so the solver's UNSAT core can blame
	// named groups. Off by default — the feasible path emits exactly the
	// same clause stream as before groups existed.
	groupsOn   bool
	groupSels  map[string]sat.Lit
	groupNames []string // insertion order
	curSel     sat.Lit
	curSet     bool
}

// NewCNF creates a Tseitin encoder targeting the given solver.
func NewCNF(b *Builder, s *sat.Solver) *CNF {
	c := &CNF{b: b, solver: s}
	return c
}

// Reset returns the encoder to the state NewCNF produces for the same
// builder and solver — nothing encoded, counters zero, groups off — while
// keeping the capacity of its per-gate variable map. It is meant to be
// called together with Builder.Reset and sat.Solver.Reset, so one
// builder/solver/encoder triple can serve many independent queries.
func (c *CNF) Reset() {
	*c = CNF{b: c.b, solver: c.solver, vars: c.vars[:0]}
}

// NumVars returns the number of SAT variables this encoder has allocated —
// the encoding-size metric the observability layer reports as CNF
// variables (distinct from Builder.NumGates, which counts circuit nodes
// whether or not they reached the solver's cone of influence).
func (c *CNF) NumVars() int { return c.nVars }

// NumClauses returns the number of clauses this encoder has added.
func (c *CNF) NumClauses() int { return c.nClauses }

// addClause forwards to the solver while counting encoding size.
func (c *CNF) addClause(lits ...sat.Lit) {
	c.nClauses++
	c.solver.AddClause(lits...)
}

// Lit returns a SAT literal equivalent to circuit bit n, encoding the cone
// of influence on first use.
func (c *CNF) Lit(n Bit) sat.Lit {
	if missing := len(c.b.gates) - len(c.vars); missing > 0 {
		c.vars = grow(c.vars, missing)
		for range missing {
			c.vars = append(c.vars, -1)
		}
	}
	return c.lit(n)
}

func (c *CNF) lit(n Bit) sat.Lit {
	g := c.b.gates[n]
	if g.op == opNot {
		return c.lit(g.a).Not()
	}
	if c.vars[n] >= 0 {
		return sat.PosLit(c.vars[n])
	}
	v := c.solver.NewVar()
	c.nVars++
	c.vars[n] = v
	out := sat.PosLit(v)
	switch g.op {
	case opConst:
		if n == True {
			c.addClause(out)
		} else {
			c.addClause(out.Not())
		}
	case opInput:
		// Free variable; no clauses.
	case opAnd:
		a, b := c.lit(g.a), c.lit(g.b)
		c.addClause(out.Not(), a)
		c.addClause(out.Not(), b)
		c.addClause(out, a.Not(), b.Not())
	case opXor:
		a, b := c.lit(g.a), c.lit(g.b)
		c.addClause(out.Not(), a, b)
		c.addClause(out.Not(), a.Not(), b.Not())
		c.addClause(out, a.Not(), b)
		c.addClause(out, a, b.Not())
	case opMux:
		s, t, f := c.lit(g.a), c.lit(g.b), c.lit(g.c)
		c.addClause(s.Not(), t.Not(), out)
		c.addClause(s.Not(), t, out.Not())
		c.addClause(s, f.Not(), out)
		c.addClause(s, f, out.Not())
	default:
		panic("circuit: unreachable gate op in Tseitin")
	}
	return out
}

// --- Constraint groups -----------------------------------------------------

// Well-known constraint-group names shared by the backends and the
// explanation pass. Domain groups gate the sketch's allocation/domain
// assertions; output groups (GroupPktField/GroupStateVar) gate the
// per-test correctness assertions of one observable output, which is what
// lets an UNSAT core blame individual program statements.
const (
	GroupOpcodeMask = "domain:opcode-mask"
	GroupMuxRange   = "domain:mux-range"
	GroupStateAlloc = "domain:state-alloc"
	GroupFieldAlloc = "domain:field-alloc"
	GroupSymmetry   = "domain:symmetry"

	groupPktPrefix   = "out:pkt."
	groupStatePrefix = "out:state."
)

// GroupPktField names the constraint group asserting the packet field f is
// computed correctly on every test input.
func GroupPktField(f string) string { return groupPktPrefix + f }

// GroupStateVar names the constraint group asserting the state variable v
// is updated correctly on every test input.
func GroupStateVar(v string) string { return groupStatePrefix + v }

// ParseOutputGroup decodes a GroupPktField/GroupStateVar name back into
// the output it asserts. ok is false for domain (non-output) groups.
func ParseOutputGroup(name string) (kind, output string, ok bool) {
	if rest, found := strings.CutPrefix(name, groupPktPrefix); found {
		return "pkt", rest, true
	}
	if rest, found := strings.CutPrefix(name, groupStatePrefix); found {
		return "state", rest, true
	}
	return "", "", false
}

// EnableGroups switches the encoder into blame-tracking mode: assertion
// clauses emitted while a group is active (SetGroup) are gated behind a
// fresh per-group selector literal as (¬sel ∨ lit). Solving under the
// assumption that every selector is true is equisatisfiable with the
// ungated encoding, but an UNSAT outcome now yields a core of selector
// literals — i.e. a set of named constraint groups that is jointly
// unsatisfiable. Tseitin definitional clauses are never gated: they are
// equivalences, not constraints, and must hold in every group subset.
//
// Groups are off by default and EnableGroups is deliberately the only way
// to turn them on, so the normal compile path's clause stream (and hence
// its solver-effort counters) is bit-identical to a build without this
// machinery.
func (c *CNF) EnableGroups() {
	c.groupsOn = true
	if c.groupSels == nil {
		c.groupSels = make(map[string]sat.Lit)
	}
	c.curSet = false
}

// SetGroup makes subsequent Assert/AssertNot calls members of the named
// group, allocating the group's selector on first use. The empty name
// reverts to ungated assertions. A no-op unless EnableGroups was called.
func (c *CNF) SetGroup(name string) {
	if !c.groupsOn {
		return
	}
	if name == "" {
		c.curSet = false
		return
	}
	sel, ok := c.groupSels[name]
	if !ok {
		sel = sat.PosLit(c.solver.NewVar())
		c.nVars++
		c.groupSels[name] = sel
		c.groupNames = append(c.groupNames, name)
	}
	c.curSel, c.curSet = sel, true
}

// Groups returns the names of all groups allocated so far, in first-use
// order.
func (c *CNF) Groups() []string {
	out := make([]string, len(c.groupNames))
	copy(out, c.groupNames)
	return out
}

// GroupAssumptions returns the selector literal of each named group, in
// the same order as the names. Passing all of them to Solve enforces every
// group; passing a subset leaves the omitted groups' constraints off.
func (c *CNF) GroupAssumptions(names []string) []sat.Lit {
	out := make([]sat.Lit, 0, len(names))
	for _, n := range names {
		sel, ok := c.groupSels[n]
		if !ok {
			panic(fmt.Sprintf("circuit: unknown constraint group %q", n))
		}
		out = append(out, sel)
	}
	return out
}

// GroupName maps a selector literal (e.g. an UNSAT-core member) back to
// its group name.
func (c *CNF) GroupName(l sat.Lit) (string, bool) {
	for name, sel := range c.groupSels {
		if sel == l {
			return name, true
		}
	}
	return "", false
}

// Assert adds the constraint that bit n is true.
func (c *CNF) Assert(n Bit) {
	if n == True {
		return
	}
	if c.curSet {
		if n == False {
			// The group is unconditionally violated: asserting its
			// selector alone forces UNSAT.
			c.addClause(c.curSel.Not())
			return
		}
		c.addClause(c.curSel.Not(), c.Lit(n))
		return
	}
	if n == False {
		// Force unsatisfiability explicitly.
		c.addClause()
		return
	}
	c.addClause(c.Lit(n))
}

// AssertNot adds the constraint that bit n is false.
func (c *CNF) AssertNot(n Bit) {
	if n == False {
		return
	}
	if c.curSet {
		if n == True {
			c.addClause(c.curSel.Not())
			return
		}
		c.addClause(c.curSel.Not(), c.Lit(n).Not())
		return
	}
	if n == True {
		c.addClause()
		return
	}
	c.addClause(c.Lit(n).Not())
}

// WordValue reads the value of a word from the solver's current model.
func (c *CNF) WordValue(w Word) uint64 {
	var v uint64
	for i, bit := range w {
		if c.BitValue(bit) {
			v |= 1 << uint(i)
		}
	}
	return v
}

// BitValue reads a bit from the solver's current model. Bits outside the
// encoded cone default to false (they were unconstrained).
func (c *CNF) BitValue(n Bit) bool {
	switch n {
	case False:
		return false
	case True:
		return true
	}
	g := c.b.gates[n]
	if g.op == opNot {
		return !c.BitValue(g.a)
	}
	if int(n) >= len(c.vars) || c.vars[n] < 0 {
		return false
	}
	return c.solver.Value(c.vars[n])
}
