// Package arith abstracts w-bit two's-complement arithmetic over a value
// type, so that one definition of a computation can be executed two ways:
// concretely on uint64 words (for the PISA simulator and the CEGIS
// specification oracle) and symbolically on bit-vector circuits (for the
// sketch that CEGIS hands to the SAT solver).
//
// This single-source-of-truth pattern is what keeps Chipmunk sound: the ALU
// semantics, the datapath muxes, and the specification encoding are each
// written once against Arith, so the circuit the synthesizer reasons about
// provably matches what the simulator later executes (property tests in
// each client package cross-check the two instantiations anyway).
package arith

import (
	"repro/internal/ast"
	"repro/internal/circuit"
	"repro/internal/word"
)

// Arith is the operation set of the Domino language and the PISA ALUs at a
// fixed bit width. Comparison and logical operations return the canonical
// truth words 0 and 1; Mux treats any non-zero selector as true.
type Arith[V any] interface {
	// ConstInt embeds a signed constant, wrapping to the width.
	ConstInt(v int64) V

	Add(a, b V) V
	Sub(a, b V) V
	Mul(a, b V) V
	BitAnd(a, b V) V
	BitOr(a, b V) V
	BitXor(a, b V) V
	BitNot(a V) V
	Neg(a V) V
	Shl(a, b V) V
	Shr(a, b V) V

	Eq(a, b V) V
	Ne(a, b V) V
	Lt(a, b V) V // signed
	Le(a, b V) V
	Gt(a, b V) V
	Ge(a, b V) V

	LAnd(a, b V) V
	LOr(a, b V) V
	LNot(a V) V

	// Mux returns t if c is non-zero, else f.
	Mux(c, t, f V) V
}

// Binary dispatches an AST binary operator over an Arith.
func Binary[V any](a Arith[V], op ast.Op, x, y V) V {
	switch op {
	case ast.OpAdd:
		return a.Add(x, y)
	case ast.OpSub:
		return a.Sub(x, y)
	case ast.OpMul:
		return a.Mul(x, y)
	case ast.OpBitAnd:
		return a.BitAnd(x, y)
	case ast.OpBitOr:
		return a.BitOr(x, y)
	case ast.OpBitXor:
		return a.BitXor(x, y)
	case ast.OpShl:
		return a.Shl(x, y)
	case ast.OpShr:
		return a.Shr(x, y)
	case ast.OpEq:
		return a.Eq(x, y)
	case ast.OpNe:
		return a.Ne(x, y)
	case ast.OpLt:
		return a.Lt(x, y)
	case ast.OpLe:
		return a.Le(x, y)
	case ast.OpGt:
		return a.Gt(x, y)
	case ast.OpGe:
		return a.Ge(x, y)
	case ast.OpLAnd:
		return a.LAnd(x, y)
	case ast.OpLOr:
		return a.LOr(x, y)
	default:
		panic("arith: not a binary operator: " + op.String())
	}
}

// Unary dispatches an AST unary operator over an Arith.
func Unary[V any](a Arith[V], op ast.Op, x V) V {
	switch op {
	case ast.OpNeg:
		return a.Neg(x)
	case ast.OpNot:
		return a.LNot(x)
	case ast.OpBitNot:
		return a.BitNot(x)
	default:
		panic("arith: not a unary operator: " + op.String())
	}
}

// Select returns opts[sel] as a Mux chain comparing sel against the
// constants 0..len(opts)-2 and falling back to the last option, so it
// works symbolically; word.Width.SelIdx is its concrete meaning.
func Select[V any](a Arith[V], sel V, opts ...V) V {
	acc := opts[len(opts)-1]
	for i := len(opts) - 2; i >= 0; i-- {
		acc = a.Mux(a.Eq(sel, a.ConstInt(int64(i))), opts[i], acc)
	}
	return acc
}

// --- Concrete instantiation --------------------------------------------------

// Conc executes Arith concretely on w-bit words carried in uint64.
type Conc struct {
	W word.Width
}

var _ Arith[uint64] = Conc{}

// ConstInt implements Arith.
func (c Conc) ConstInt(v int64) uint64 { return c.W.FromInt(v) }

// Add implements Arith.
func (c Conc) Add(a, b uint64) uint64 { return c.W.Add(a, b) }

// Sub implements Arith.
func (c Conc) Sub(a, b uint64) uint64 { return c.W.Sub(a, b) }

// Mul implements Arith.
func (c Conc) Mul(a, b uint64) uint64 { return c.W.Mul(a, b) }

// BitAnd implements Arith.
func (c Conc) BitAnd(a, b uint64) uint64 { return c.W.And(a, b) }

// BitOr implements Arith.
func (c Conc) BitOr(a, b uint64) uint64 { return c.W.Or(a, b) }

// BitXor implements Arith.
func (c Conc) BitXor(a, b uint64) uint64 { return c.W.Xor(a, b) }

// BitNot implements Arith.
func (c Conc) BitNot(a uint64) uint64 { return c.W.Not(a) }

// Neg implements Arith.
func (c Conc) Neg(a uint64) uint64 { return c.W.Neg(a) }

// Shl implements Arith.
func (c Conc) Shl(a, b uint64) uint64 { return c.W.Shl(a, b) }

// Shr implements Arith.
func (c Conc) Shr(a, b uint64) uint64 { return c.W.Shr(a, b) }

// Eq implements Arith.
func (c Conc) Eq(a, b uint64) uint64 { return c.W.Eq(a, b) }

// Ne implements Arith.
func (c Conc) Ne(a, b uint64) uint64 { return c.W.Ne(a, b) }

// Lt implements Arith.
func (c Conc) Lt(a, b uint64) uint64 { return c.W.Lt(a, b) }

// Le implements Arith.
func (c Conc) Le(a, b uint64) uint64 { return c.W.Le(a, b) }

// Gt implements Arith.
func (c Conc) Gt(a, b uint64) uint64 { return c.W.Gt(a, b) }

// Ge implements Arith.
func (c Conc) Ge(a, b uint64) uint64 { return c.W.Ge(a, b) }

// LAnd implements Arith.
func (c Conc) LAnd(a, b uint64) uint64 { return word.LAnd(a, b) }

// LOr implements Arith.
func (c Conc) LOr(a, b uint64) uint64 { return word.LOr(a, b) }

// LNot implements Arith.
func (c Conc) LNot(a uint64) uint64 { return word.LNot(a) }

// Mux implements Arith.
func (c Conc) Mux(cond, t, f uint64) uint64 { return word.Mux(cond, t, f) }

// --- Symbolic instantiation ---------------------------------------------------

// Circ builds Arith operations as bit-vector circuits.
type Circ struct {
	B *circuit.Builder
	W word.Width
}

var _ Arith[circuit.Word] = Circ{}

// ConstInt implements Arith.
func (c Circ) ConstInt(v int64) circuit.Word { return c.B.ConstWord(c.W.FromInt(v), c.W) }

// Add implements Arith.
func (c Circ) Add(a, b circuit.Word) circuit.Word { return c.B.AddW(a, b) }

// Sub implements Arith.
func (c Circ) Sub(a, b circuit.Word) circuit.Word { return c.B.SubW(a, b) }

// Mul implements Arith.
func (c Circ) Mul(a, b circuit.Word) circuit.Word { return c.B.MulW(a, b) }

// BitAnd implements Arith.
func (c Circ) BitAnd(a, b circuit.Word) circuit.Word { return c.B.AndW(a, b) }

// BitOr implements Arith.
func (c Circ) BitOr(a, b circuit.Word) circuit.Word { return c.B.OrW(a, b) }

// BitXor implements Arith.
func (c Circ) BitXor(a, b circuit.Word) circuit.Word { return c.B.XorW(a, b) }

// BitNot implements Arith.
func (c Circ) BitNot(a circuit.Word) circuit.Word { return c.B.NotW(a) }

// Neg implements Arith.
func (c Circ) Neg(a circuit.Word) circuit.Word { return c.B.NegW(a) }

// Shl implements Arith.
func (c Circ) Shl(a, b circuit.Word) circuit.Word { return c.B.ShlW(a, b) }

// Shr implements Arith.
func (c Circ) Shr(a, b circuit.Word) circuit.Word { return c.B.ShrW(a, b) }

func (c Circ) fromBit(bit circuit.Bit) circuit.Word { return c.B.BoolToWord(bit, c.W) }

// Eq implements Arith.
func (c Circ) Eq(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.EqW(a, b)) }

// Ne implements Arith.
func (c Circ) Ne(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.Not(c.B.EqW(a, b))) }

// Lt implements Arith.
func (c Circ) Lt(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.SltW(a, b)) }

// Le implements Arith.
func (c Circ) Le(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.SleW(a, b)) }

// Gt implements Arith.
func (c Circ) Gt(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.SltW(b, a)) }

// Ge implements Arith.
func (c Circ) Ge(a, b circuit.Word) circuit.Word { return c.fromBit(c.B.SleW(b, a)) }

// LAnd implements Arith.
func (c Circ) LAnd(a, b circuit.Word) circuit.Word {
	return c.fromBit(c.B.And(c.B.NonZero(a), c.B.NonZero(b)))
}

// LOr implements Arith.
func (c Circ) LOr(a, b circuit.Word) circuit.Word {
	return c.fromBit(c.B.Or(c.B.NonZero(a), c.B.NonZero(b)))
}

// LNot implements Arith.
func (c Circ) LNot(a circuit.Word) circuit.Word { return c.fromBit(c.B.Not(c.B.NonZero(a))) }

// Mux implements Arith.
func (c Circ) Mux(cond, t, f circuit.Word) circuit.Word {
	return c.B.MuxW(c.B.NonZero(cond), t, f)
}
