// Package linerate compiles a validated pisa.Config into a specialized
// execution engine — the runtime half of the paper's premise that
// synthesized switch code runs at line rate.
//
// Config.ExecInto interprets the grid: every mux re-walks its selection
// chain and every hole is re-read from its map per packet. Compile does
// that work once. Field and state names resolve to slot indices at compile
// time; each ALU's hole values are lifted into a constant-folding
// instantiation of the same generic ALU semantics (internal/alu evaluated
// over a partial-evaluation value domain), so the mux chains collapse and
// what remains is one pre-bound Go closure per ALU, specialized to its
// opcode with immediates folded in. Execution then moves flat []uint64
// vectors through the stages with zero per-packet allocation.
//
// Bit-identity with Config.ExecInto is the load-bearing property: the ALU
// bodies are the shared generic definitions (not a reimplementation), the
// folding arithmetic applies exactly the word.Width operations
// arith.Conc applies at runtime, and the grid plumbing reproduces the
// Datapath's mux-chain semantics (including the truncating-selector
// aliasing at narrow word widths) via word.Width.SelIdx. The equivalence is
// pinned by exhaustive small-width sweeps, randomized full-width probes,
// and a native fuzz target in internal/difftest.
package linerate

import (
	"fmt"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/pisa"
	"repro/internal/word"
)

// aluFn is a compiled ALU: a closure over (state inputs, packet operands)
// returning one word. Plain value arguments keep calls allocation-free —
// an environment pointer would escape to the heap at every dynamic call.
type aluFn func(s0, s1, p0, p1 uint64) uint64

// cv is the partial-evaluation value domain: either a known constant
// (hole values, folded subexpressions) or a residual closure.
type cv struct {
	fn      aluFn
	k       uint64
	isConst bool
}

func (c cv) eval() aluFn {
	if c.isConst {
		k := c.k
		return func(s0, s1, p0, p1 uint64) uint64 { return k }
	}
	return c.fn
}

// comp instantiates arith.Arith over cv. Every operation folds to a
// constant when its operands are constants, applying the *same* word.Width
// function arith.Conc would apply at runtime — so folding can never change
// semantics, only when the work happens.
type comp struct{ w word.Width }

var _ arith.Arith[cv] = comp{}

func con(k uint64) cv { return cv{k: k, isConst: true} }

// bin builds a binary node, folding when both sides are constants.
func (c comp) bin(a, b cv, op func(w word.Width, x, y uint64) uint64) cv {
	w := c.w
	if a.isConst && b.isConst {
		return con(op(w, a.k, b.k))
	}
	fa, fb := a.eval(), b.eval()
	return cv{fn: func(s0, s1, p0, p1 uint64) uint64 {
		return op(w, fa(s0, s1, p0, p1), fb(s0, s1, p0, p1))
	}}
}

func (c comp) un(a cv, op func(w word.Width, x uint64) uint64) cv {
	w := c.w
	if a.isConst {
		return con(op(w, a.k))
	}
	fa := a.eval()
	return cv{fn: func(s0, s1, p0, p1 uint64) uint64 {
		return op(w, fa(s0, s1, p0, p1))
	}}
}

func (c comp) ConstInt(v int64) cv { return con(c.w.FromInt(v)) }

func (c comp) Add(a, b cv) cv { return c.bin(a, b, word.Width.Add) }
func (c comp) Sub(a, b cv) cv { return c.bin(a, b, word.Width.Sub) }
func (c comp) Mul(a, b cv) cv { return c.bin(a, b, word.Width.Mul) }
func (c comp) BitAnd(a, b cv) cv {
	return c.bin(a, b, word.Width.And)
}
func (c comp) BitOr(a, b cv) cv  { return c.bin(a, b, word.Width.Or) }
func (c comp) BitXor(a, b cv) cv { return c.bin(a, b, word.Width.Xor) }
func (c comp) BitNot(a cv) cv    { return c.un(a, word.Width.Not) }
func (c comp) Neg(a cv) cv       { return c.un(a, word.Width.Neg) }
func (c comp) Shl(a, b cv) cv    { return c.bin(a, b, word.Width.Shl) }
func (c comp) Shr(a, b cv) cv    { return c.bin(a, b, word.Width.Shr) }
func (c comp) Eq(a, b cv) cv     { return c.bin(a, b, word.Width.Eq) }
func (c comp) Ne(a, b cv) cv     { return c.bin(a, b, word.Width.Ne) }
func (c comp) Lt(a, b cv) cv     { return c.bin(a, b, word.Width.Lt) }
func (c comp) Le(a, b cv) cv     { return c.bin(a, b, word.Width.Le) }
func (c comp) Gt(a, b cv) cv     { return c.bin(a, b, word.Width.Gt) }
func (c comp) Ge(a, b cv) cv     { return c.bin(a, b, word.Width.Ge) }

func (c comp) LAnd(a, b cv) cv {
	return c.bin(a, b, func(_ word.Width, x, y uint64) uint64 { return word.LAnd(x, y) })
}
func (c comp) LOr(a, b cv) cv {
	return c.bin(a, b, func(_ word.Width, x, y uint64) uint64 { return word.LOr(x, y) })
}
func (c comp) LNot(a cv) cv {
	return c.un(a, func(_ word.Width, x uint64) uint64 { return word.LNot(x) })
}

// Mux folds to the taken branch when the condition is constant — the step
// that collapses opcode and mux selection chains, since their selectors
// are hole constants. word.Mux passes branch values through unmasked, and
// so does this.
func (c comp) Mux(cond, t, f cv) cv {
	if cond.isConst {
		if word.Truthy(cond.k) {
			return t
		}
		return f
	}
	fc, ft, ff := cond.eval(), t.eval(), f.eval()
	return cv{fn: func(s0, s1, p0, p1 uint64) uint64 {
		if word.Truthy(fc(s0, s1, p0, p1)) {
			return ft(s0, s1, p0, p1)
		}
		return ff(s0, s1, p0, p1)
	}}
}

// Free variables of the cv domain: the two state inputs and the two
// packet operands an aluFn receives.
var (
	varS0 = cv{fn: func(s0, s1, p0, p1 uint64) uint64 { return s0 }}
	varS1 = cv{fn: func(s0, s1, p0, p1 uint64) uint64 { return s1 }}
	varP0 = cv{fn: func(s0, s1, p0, p1 uint64) uint64 { return p0 }}
	varP1 = cv{fn: func(s0, s1, p0, p1 uint64) uint64 { return p1 }}
)

var stVars = [2]cv{varS0, varS1}
var pktVars = [2]cv{varP0, varP1}

// slPlan is one compiled stateless ALU: read containers ia and ib, apply fn.
type slPlan struct {
	ia, ib int
	fn     aluFn
}

// sfPlan is one compiled stateful ALU slot that has an observable effect
// this stage: active (owns live state) and/or referenced by an output mux.
type sfPlan struct {
	slot   int    // container/state column j
	active bool   // reads and writes states [slot*ns, slot*ns+ns)
	outRef bool   // some output mux in this stage selects this slot
	pktIdx [2]int // container index per packet operand
	out    aluFn  // nil unless outRef
	newSt  [2]aluFn
}

// stagePlan routes one pipeline stage: the stateful units worth running,
// and per container either a stateful output slot or a stateless closure.
type stagePlan struct {
	sf []sfPlan
	// route[j] is the stateful column whose output feeds container j, or
	// -1 when the container keeps its own stateless ALU result.
	route []int
	sl    []slPlan // indexed by container; fn nil when routed from sf
}

// Engine is a pisa.Config compiled to specialized closures. Engines are
// immutable after Compile and safe for concurrent use; per-goroutine
// mutable state lives in Buf.
type Engine struct {
	grid       pisa.GridSpec
	fields     []string
	states     []string
	ns         int
	npkt       int
	fieldSrc   []int // container -> field loaded into it, or -1 (zero)
	fieldOut   []int // field -> container it unloads from, or -1 (zero)
	stages     []stagePlan
	stateSlots int
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

// Compile specializes a validated configuration into an Engine.
func Compile(cfg *pisa.Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("linerate: %w", err)
	}
	g := cfg.Grid
	w := g.WordWidth
	a := comp{w: w}
	ns := g.StatefulALU.NumStates()
	npkt := g.StatefulALU.NumPacketOperands()
	if ns > 2 || npkt > 2 {
		return nil, fmt.Errorf("linerate: stateful ALU %s needs %d states and %d operands; engine supports at most 2 of each",
			g.StatefulALU.Kind, ns, npkt)
	}

	e := &Engine{
		grid:       g,
		fields:     cfg.Fields,
		states:     cfg.States,
		ns:         ns,
		npkt:       npkt,
		stateSlots: g.StateSlots(),
	}

	// Field slot resolution, done once instead of per packet. The Mux
	// chains in Datapath give "last indicator wins"; scanning fields (or
	// containers) in ascending order and overwriting reproduces that.
	e.fieldSrc = make([]int, g.Width)
	e.fieldOut = make([]int, len(cfg.Fields))
	if cfg.Values.FieldAlloc == nil {
		for j := range e.fieldSrc {
			if j < len(cfg.Fields) {
				e.fieldSrc[j] = j
			} else {
				e.fieldSrc[j] = -1
			}
		}
		for f := range e.fieldOut {
			e.fieldOut[f] = f
		}
	} else {
		for j := range e.fieldSrc {
			e.fieldSrc[j] = -1
			for f := range cfg.Values.FieldAlloc {
				if word.Truthy(cfg.Values.FieldAlloc[f][j]) {
					e.fieldSrc[j] = f
				}
			}
		}
		for f := range e.fieldOut {
			e.fieldOut[f] = -1
			for j := 0; j < g.Width; j++ {
				if word.Truthy(cfg.Values.FieldAlloc[f][j]) {
					e.fieldOut[f] = j
				}
			}
		}
	}

	liftHoles := func(m map[string]uint64) map[string]cv {
		out := make(map[string]cv, len(m))
		for k, v := range m {
			// Raw, not truncated: Datapath feeds hole values into the
			// arithmetic unmasked and lets each operation mask its result.
			out[k] = con(v)
		}
		return out
	}

	e.stages = make([]stagePlan, g.Stages)
	for i := 0; i < g.Stages; i++ {
		st := &e.stages[i]
		st.route = make([]int, g.Width)
		st.sl = make([]slPlan, g.Width)

		outRef := make([]bool, g.Width)
		for j := 0; j < g.Width; j++ {
			sel := w.SelIdx(cfg.Values.OMux[i][j], g.Width+1)
			if sel < g.Width {
				st.route[j] = sel
				outRef[sel] = true
			} else {
				st.route[j] = -1
			}
		}

		for j := 0; j < g.Width; j++ {
			if st.route[j] >= 0 {
				continue // container fed by a stateful output; stateless ALU is dead
			}
			holes := liftHoles(cfg.Values.Stateless[i][j])
			plan := slPlan{
				ia: w.SelIdx(cfg.Values.Stateless[i][j]["imux1"], g.Width),
				ib: w.SelIdx(cfg.Values.Stateless[i][j]["imux2"], g.Width),
			}
			plan.fn = alu.EvalStateless[cv](a, holes, varP0, varP1).eval()
			st.sl[j] = plan
		}

		for j := 0; j < g.Width; j++ {
			active := w.Eq(cfg.Values.SaluActive[i][j], 1) != 0
			if !active && !outRef[j] {
				continue // no state write-back and no reader: unobservable
			}
			holes := liftHoles(cfg.Values.Stateful[i][j])
			plan := sfPlan{slot: j, active: active, outRef: outRef[j]}
			for k := 0; k < npkt; k++ {
				plan.pktIdx[k] = w.SelIdx(cfg.Values.Stateful[i][j][fmt.Sprintf("imux%d", k)], g.Width)
			}
			// When inactive, the state operands read as zero — bake that in.
			stIn := make([]cv, ns)
			for k := 0; k < ns; k++ {
				if active {
					stIn[k] = stVars[k]
				} else {
					stIn[k] = con(0)
				}
			}
			newSt := make([]cv, ns)
			out := alu.EvalStatefulInto[cv](a, g.StatefulALU, holes, stIn, pktVars[:npkt], newSt)
			if outRef[j] {
				plan.out = out.eval()
			}
			if active {
				for k := 0; k < ns; k++ {
					plan.newSt[k] = newSt[k].eval()
				}
			}
			st.sf = append(st.sf, plan)
		}
	}
	return e, nil
}

// Buf holds one goroutine's packet-transit buffers. Engines share; Bufs
// don't.
type Buf struct {
	cur, next []uint64
	sfOut     []uint64
	state     []uint64 // full capacity, padded slots zeroed per packet
}

// NewBuf allocates execution buffers sized for the engine's grid.
func (e *Engine) NewBuf() *Buf {
	return &Buf{
		cur:   make([]uint64, e.grid.Width),
		next:  make([]uint64, e.grid.Width),
		sfOut: make([]uint64, e.grid.Width),
		state: make([]uint64, e.stateSlots),
	}
}

// ExecInto runs one packet transaction: fields (len NumFields) and states
// (len NumStates) are truncated to the datapath width on entry and
// overwritten with the outputs. Bit-identical to pisa.Config.Exec;
// allocation-free.
func (e *Engine) ExecInto(b *Buf, fields, states []uint64) {
	w := e.grid.WordWidth
	ns := e.ns
	cur, next := b.cur, b.next

	for j, f := range e.fieldSrc {
		if f >= 0 {
			cur[j] = w.Trunc(fields[f])
		} else {
			cur[j] = 0
		}
	}
	for i := range b.state {
		if i < len(states) {
			b.state[i] = w.Trunc(states[i])
		} else {
			b.state[i] = 0
		}
	}

	for i := range e.stages {
		st := &e.stages[i]
		for k := range st.sf {
			p := &st.sf[k]
			base := p.slot * ns
			var s0, s1, p0, p1 uint64
			if p.active {
				s0 = b.state[base]
				if ns > 1 {
					s1 = b.state[base+1]
				}
			}
			p0 = cur[p.pktIdx[0]]
			if e.npkt > 1 {
				p1 = cur[p.pktIdx[1]]
			}
			if p.outRef {
				b.sfOut[p.slot] = p.out(s0, s1, p0, p1)
			}
			if p.active {
				b.state[base] = p.newSt[0](s0, s1, p0, p1)
				if ns > 1 {
					b.state[base+1] = p.newSt[1](s0, s1, p0, p1)
				}
			}
		}
		for j := range st.route {
			if src := st.route[j]; src >= 0 {
				next[j] = b.sfOut[src]
			} else {
				pl := &st.sl[j]
				next[j] = pl.fn(0, 0, cur[pl.ia], cur[pl.ib])
			}
		}
		cur, next = next, cur
	}
	b.cur, b.next = cur, next

	for f, j := range e.fieldOut {
		if j >= 0 {
			fields[f] = cur[j]
		} else {
			fields[f] = 0
		}
	}
	copy(states, b.state[:len(states)])
}

// ExecBatch runs n packet transactions against one state vector (one
// flow). pkts is row-major, n × NumFields, updated in place with each
// packet's outputs; states (len NumStates) carries across packets exactly
// as chained Config.Exec calls would.
func (e *Engine) ExecBatch(b *Buf, pkts []uint64, n int, states []uint64) {
	nf := len(e.fields)
	if len(pkts) < n*nf {
		panic(fmt.Sprintf("linerate: batch of %d packets needs %d values, got %d", n, n*nf, len(pkts)))
	}
	for i := 0; i < n; i++ {
		e.ExecInto(b, pkts[i*nf:(i+1)*nf], states)
	}
}
