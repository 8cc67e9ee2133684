// Package word implements fixed-width two's-complement integer arithmetic.
//
// Every scalar in this repository — packet fields, switch state, immediate
// operands, ALU results — is a w-bit two's-complement integer for a
// configurable width w. The specification interpreter (internal/interp), the
// PISA datapath simulator (internal/pisa), and the bit-vector circuit encoder
// (internal/circuit) all use exactly the semantics defined here, which is the
// property that makes counterexample-guided synthesis sound: a hole
// assignment verified at width w is correct for every input at width w.
//
// Values are carried in uint64 with only the low w bits significant; all
// operations mask their results back to w bits. Comparison and boolean
// operators return the canonical truth values 0 and 1, matching C (and
// Domino) semantics.
package word

import "fmt"

// MaxWidth is the largest supported bit width. Widths beyond 32 are
// unnecessary for the paper's experiments (SKETCH defaults to 5-bit inputs
// and the Z3 outer loop verifies at 10 bits) and keeping products inside
// uint64 requires w <= 32.
const MaxWidth = 32

// Width is a bit width for scalar values.
type Width int

// Validate returns an error if the width is outside [1, MaxWidth].
func (w Width) Validate() error {
	if w < 1 || w > MaxWidth {
		return fmt.Errorf("word: width %d out of range [1, %d]", int(w), MaxWidth)
	}
	return nil
}

// Mask returns the bit mask with the low w bits set.
func (w Width) Mask() uint64 {
	return (uint64(1) << uint(w)) - 1
}

// Size returns the number of distinct values at this width, 2^w.
func (w Width) Size() uint64 {
	return uint64(1) << uint(w)
}

// Trunc truncates v to w bits.
func (w Width) Trunc(v uint64) uint64 {
	return v & w.Mask()
}

// FromInt converts a Go int64 to a w-bit word, wrapping two's-complement.
func (w Width) FromInt(v int64) uint64 {
	return uint64(v) & w.Mask()
}

// ToInt sign-extends a w-bit word to a Go int64.
func (w Width) ToInt(v uint64) int64 {
	v &= w.Mask()
	sign := uint64(1) << uint(w-1)
	if v&sign != 0 {
		return int64(v | ^w.Mask())
	}
	return int64(v)
}

// SignBit reports whether the w-bit word v is negative.
func (w Width) SignBit(v uint64) bool {
	return v&(1<<uint(w-1)) != 0
}

// Add returns a+b at width w.
func (w Width) Add(a, b uint64) uint64 { return (a + b) & w.Mask() }

// Sub returns a-b at width w.
func (w Width) Sub(a, b uint64) uint64 { return (a - b) & w.Mask() }

// Mul returns a*b at width w.
func (w Width) Mul(a, b uint64) uint64 { return (a * b) & w.Mask() }

// Neg returns -a at width w.
func (w Width) Neg(a uint64) uint64 { return (-a) & w.Mask() }

// And returns the bitwise AND at width w.
func (w Width) And(a, b uint64) uint64 { return a & b & w.Mask() }

// Or returns the bitwise OR at width w.
func (w Width) Or(a, b uint64) uint64 { return (a | b) & w.Mask() }

// Xor returns the bitwise XOR at width w.
func (w Width) Xor(a, b uint64) uint64 { return (a ^ b) & w.Mask() }

// Not returns the bitwise complement at width w.
func (w Width) Not(a uint64) uint64 { return (^a) & w.Mask() }

// Shl returns a << b at width w. Shift amounts >= w yield 0, matching the
// circuit encoder's barrel shifter (and avoiding C's undefined behaviour,
// which Domino programs must not rely on).
func (w Width) Shl(a, b uint64) uint64 {
	if b >= uint64(w) {
		return 0
	}
	return (a << b) & w.Mask()
}

// Shr returns the logical right shift a >> b at width w, with shifts >= w
// yielding 0.
func (w Width) Shr(a, b uint64) uint64 {
	if b >= uint64(w) {
		return 0
	}
	return (a & w.Mask()) >> b
}

// Bool converts a Go bool to the canonical word truth value.
func Bool(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Truthy reports whether a word is a C-style true value (non-zero).
func Truthy(v uint64) bool { return v != 0 }

// Eq returns 1 if a == b at width w, else 0.
func (w Width) Eq(a, b uint64) uint64 { return Bool(w.Trunc(a) == w.Trunc(b)) }

// Ne returns 1 if a != b at width w, else 0.
func (w Width) Ne(a, b uint64) uint64 { return Bool(w.Trunc(a) != w.Trunc(b)) }

// Lt returns 1 if a < b as signed w-bit integers, else 0.
func (w Width) Lt(a, b uint64) uint64 { return Bool(w.ToInt(a) < w.ToInt(b)) }

// Le returns 1 if a <= b as signed w-bit integers, else 0.
func (w Width) Le(a, b uint64) uint64 { return Bool(w.ToInt(a) <= w.ToInt(b)) }

// Gt returns 1 if a > b as signed w-bit integers, else 0.
func (w Width) Gt(a, b uint64) uint64 { return Bool(w.ToInt(a) > w.ToInt(b)) }

// Ge returns 1 if a >= b as signed w-bit integers, else 0.
func (w Width) Ge(a, b uint64) uint64 { return Bool(w.ToInt(a) >= w.ToInt(b)) }

// LAnd returns the C logical AND: 1 if both operands are non-zero.
func LAnd(a, b uint64) uint64 { return Bool(Truthy(a) && Truthy(b)) }

// LOr returns the C logical OR: 1 if either operand is non-zero.
func LOr(a, b uint64) uint64 { return Bool(Truthy(a) || Truthy(b)) }

// LNot returns the C logical NOT: 1 if the operand is zero.
func LNot(a uint64) uint64 { return Bool(!Truthy(a)) }

// Mux returns t if sel is truthy, else f. This is the ternary operator and
// the semantics of every mux in the PISA datapath.
func Mux(sel, t, f uint64) uint64 {
	if Truthy(sel) {
		return t
	}
	return f
}

// SelIdx is the concrete meaning of arith.Select over n options: the
// first index whose w-bit encoding equals sel's w-bit truncation wins,
// else n-1. At widths at least as wide as the selector this is a plain
// clamped index; at narrower widths it reproduces the chain's truncating
// aliasing exactly.
func (w Width) SelIdx(sel uint64, n int) int {
	s := w.Trunc(sel)
	for i := 0; i < n-1; i++ {
		if s == w.Trunc(uint64(i)) {
			return i
		}
	}
	return n - 1
}

// Next advances v to the next vector of w-bit values in odometer order
// (v[0] varies fastest) and reports false once it wraps back to all
// zeros. Starting from all zeros, a loop over Next visits every vector
// exactly once.
func (w Width) Next(v []uint64) bool {
	for i := range v {
		v[i]++
		if v[i] < w.Size() {
			return true
		}
		v[i] = 0
	}
	return false
}
