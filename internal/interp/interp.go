// Package interp executes Domino packet transactions with the paper's
// transactional semantics (§2.1): a program runs from start to finish
// atomically over one packet at a time, reading and writing packet fields
// and persistent switch state.
//
// The interpreter is the reference semantics for the entire repository. It
// serves as the specification oracle S(x) in the CEGIS loop (paper Figure 3
// and Equations 1–3), as the ground truth the mutation generator must
// preserve, and as the differential-test reference for the PISA simulator
// running synthesized configurations. All arithmetic is w-bit
// two's-complement via internal/word.
package interp

import (
	"fmt"
	"sort"

	"repro/internal/ast"
	"repro/internal/word"
)

// Snapshot is the (packet, state) pair that a packet transaction maps to a
// new (packet, state) pair — the StateAndPacket struct of the paper's
// Appendix A sketch.
type Snapshot struct {
	Pkt   map[string]uint64
	State map[string]uint64
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() Snapshot {
	return Snapshot{Pkt: map[string]uint64{}, State: map[string]uint64{}}
}

// Clone deep-copies the snapshot.
func (s Snapshot) Clone() Snapshot {
	c := Snapshot{
		Pkt:   make(map[string]uint64, len(s.Pkt)),
		State: make(map[string]uint64, len(s.State)),
	}
	for k, v := range s.Pkt {
		c.Pkt[k] = v
	}
	for k, v := range s.State {
		c.State[k] = v
	}
	return c
}

// Equal reports whether two snapshots agree on the given field and state
// names (missing keys read as zero, matching the language semantics).
func (s Snapshot) Equal(o Snapshot, fields, states []string) bool {
	for _, f := range fields {
		if s.Pkt[f] != o.Pkt[f] {
			return false
		}
	}
	for _, st := range states {
		if s.State[st] != o.State[st] {
			return false
		}
	}
	return true
}

// String renders the snapshot deterministically for error messages.
func (s Snapshot) String() string {
	render := func(m map[string]uint64, prefix string) string {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		out := ""
		for _, k := range keys {
			out += fmt.Sprintf(" %s%s=%d", prefix, k, m[k])
		}
		return out
	}
	return "{" + render(s.Pkt, "pkt.") + render(s.State, "") + " }"
}

// Interp evaluates programs at a fixed bit width.
type Interp struct {
	width word.Width
}

// New returns an interpreter at width w.
func New(w word.Width) (*Interp, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Interp{width: w}, nil
}

// MustNew is New for known-valid widths.
func MustNew(w word.Width) *Interp {
	in, err := New(w)
	if err != nil {
		panic(err)
	}
	return in
}

// Width returns the interpreter's bit width.
func (in *Interp) Width() word.Width { return in.width }

// Run executes one packet transaction. The input snapshot is not modified;
// state variables declared in the program's Init map but absent from the
// input snapshot start at their declared initial value.
func (in *Interp) Run(p *ast.Program, input Snapshot) (Snapshot, error) {
	out := input.Clone()
	for name, init := range p.Init {
		if _, ok := out.State[name]; !ok {
			out.State[name] = in.width.FromInt(init)
		}
	}
	if err := in.runStmts(p.Stmts, &out); err != nil {
		return Snapshot{}, fmt.Errorf("interp: %s: %w", p.Name, err)
	}
	return out, nil
}

func (in *Interp) runStmts(stmts []ast.Stmt, env *Snapshot) error {
	for _, s := range stmts {
		switch s := s.(type) {
		case *ast.Assign:
			v, err := in.Eval(s.RHS, env)
			if err != nil {
				return err
			}
			if s.LHS.IsField {
				env.Pkt[s.LHS.Name] = v
			} else {
				env.State[s.LHS.Name] = v
			}
		case *ast.If:
			c, err := in.Eval(s.Cond, env)
			if err != nil {
				return err
			}
			if word.Truthy(c) {
				if err := in.runStmts(s.Then, env); err != nil {
					return err
				}
			} else if err := in.runStmts(s.Else, env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown statement type %T", s)
		}
	}
	return nil
}

// Eval evaluates an expression against a snapshot.
func (in *Interp) Eval(e ast.Expr, env *Snapshot) (uint64, error) {
	w := in.width
	switch e := e.(type) {
	case *ast.Num:
		return w.FromInt(e.Value), nil
	case *ast.Field:
		return w.Trunc(env.Pkt[e.Name]), nil
	case *ast.State:
		return w.Trunc(env.State[e.Name]), nil
	case *ast.Unary:
		x, err := in.Eval(e.X, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case ast.OpNeg:
			return w.Neg(x), nil
		case ast.OpNot:
			return word.LNot(x), nil
		case ast.OpBitNot:
			return w.Not(x), nil
		default:
			return 0, fmt.Errorf("unknown unary operator %v", e.Op)
		}
	case *ast.Binary:
		// Logical operators short-circuit, per C. The result is identical
		// to full evaluation in this pure language, but short-circuiting
		// here keeps the reference semantics obviously C-compatible.
		if e.Op == ast.OpLAnd || e.Op == ast.OpLOr {
			x, err := in.Eval(e.X, env)
			if err != nil {
				return 0, err
			}
			if e.Op == ast.OpLAnd && !word.Truthy(x) {
				return 0, nil
			}
			if e.Op == ast.OpLOr && word.Truthy(x) {
				return 1, nil
			}
			y, err := in.Eval(e.Y, env)
			if err != nil {
				return 0, err
			}
			return word.Bool(word.Truthy(y)), nil
		}
		x, err := in.Eval(e.X, env)
		if err != nil {
			return 0, err
		}
		y, err := in.Eval(e.Y, env)
		if err != nil {
			return 0, err
		}
		switch e.Op {
		case ast.OpAdd:
			return w.Add(x, y), nil
		case ast.OpSub:
			return w.Sub(x, y), nil
		case ast.OpMul:
			return w.Mul(x, y), nil
		case ast.OpBitAnd:
			return w.And(x, y), nil
		case ast.OpBitOr:
			return w.Or(x, y), nil
		case ast.OpBitXor:
			return w.Xor(x, y), nil
		case ast.OpShl:
			return w.Shl(x, y), nil
		case ast.OpShr:
			return w.Shr(x, y), nil
		case ast.OpEq:
			return w.Eq(x, y), nil
		case ast.OpNe:
			return w.Ne(x, y), nil
		case ast.OpLt:
			return w.Lt(x, y), nil
		case ast.OpLe:
			return w.Le(x, y), nil
		case ast.OpGt:
			return w.Gt(x, y), nil
		case ast.OpGe:
			return w.Ge(x, y), nil
		default:
			return 0, fmt.Errorf("unknown binary operator %v", e.Op)
		}
	case *ast.Ternary:
		c, err := in.Eval(e.Cond, env)
		if err != nil {
			return 0, err
		}
		if word.Truthy(c) {
			return in.Eval(e.T, env)
		}
		return in.Eval(e.F, env)
	default:
		return 0, fmt.Errorf("unknown expression type %T", e)
	}
}

// Equivalent exhaustively checks that two programs compute the same
// transaction over every (packet, state) input at the interpreter's width.
// It is feasible only for small widths and variable counts; the CEGIS
// verification phase uses the SAT backend for larger spaces. It returns the
// first differing input, if any.
func (in *Interp) Equivalent(a, b *ast.Program) (bool, Snapshot, error) {
	va, vb := a.Variables(), b.Variables()
	fields := unionSorted(va.Fields, vb.Fields)
	states := unionSorted(va.States, vb.States)
	nVars := len(fields) + len(states)
	totalBits := nVars * int(in.width)
	if totalBits > 24 {
		return false, Snapshot{}, fmt.Errorf("interp: exhaustive check over %d bits is infeasible", totalBits)
	}
	counts := make([]uint64, nVars)
	for {
		input := NewSnapshot()
		for i, f := range fields {
			input.Pkt[f] = counts[i]
		}
		for i, s := range states {
			input.State[s] = counts[len(fields)+i]
		}
		ra, err := in.Run(a, input)
		if err != nil {
			return false, Snapshot{}, err
		}
		rb, err := in.Run(b, input)
		if err != nil {
			return false, Snapshot{}, err
		}
		if !ra.Equal(rb, fields, states) {
			return false, input, nil
		}
		if !in.width.Next(counts) {
			return true, Snapshot{}, nil
		}
	}
}

func unionSorted(a, b []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range a {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	for _, s := range b {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
