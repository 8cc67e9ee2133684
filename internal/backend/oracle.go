package backend

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/interp"
	"repro/internal/word"
)

// The equivalence oracle's input budget. ExhaustiveWidth must be at least
// every target's minimum sound width (the widest control hole: the 4-bit
// PISA stateless opcode, the 5-bit BPF opcode selector); below it,
// truncating selection would alias control encodings.
const (
	// ExhaustiveWidth is the width of the exhaustive input sweep.
	ExhaustiveWidth = word.Width(5)
	// ExhaustiveBits caps the exhaustive input space at 2^20 inputs.
	ExhaustiveBits = 20
	// ProbeBudget is the number of random probes at the run width.
	ProbeBudget = 4096
)

// Mismatch is evidence that a configuration and the reference interpreter
// disagree on one input.
type Mismatch struct {
	Width word.Width
	Input interp.Snapshot
	// Var names the first output that differs ("pkt.f" or "state s").
	Var       string
	Got, Want uint64
	// Err is set instead of Var when the interpreter rejected the input.
	Err error
}

func (m *Mismatch) Error() string {
	if m.Err != nil {
		return fmt.Sprintf("interpreter rejected input %s: %v", m.Input, m.Err)
	}
	return fmt.Sprintf("width %d input %s: config %s = %d, interpreter says %d",
		m.Width, m.Input, m.Var, m.Got, m.Want)
}

// Checker runs one configuration beside the reference interpreter. It
// reuses its buffers across inputs, so each goroutine needs its own.
type Checker struct {
	prog           *ast.Program
	fields, states []string
	in             *interp.Interp
	exec           func(fields, states []uint64)
	snap           interp.Snapshot
	got            []uint64
}

// NewChecker returns a Checker for prog and cfg at cfg's run width.
func NewChecker(prog *ast.Program, cfg Config) *Checker {
	fields, states := cfg.Vars()
	return &Checker{
		prog:   prog,
		fields: fields,
		states: states,
		in:     interp.MustNew(cfg.RunWidth()),
		exec:   cfg.NewExecutor(),
		snap:   interp.NewSnapshot(),
		got:    make([]uint64, len(fields)+len(states)),
	}
}

// Compare runs one input, given as values in Vars order (fields, then
// states), through the interpreter and the configuration, and returns the
// first output they disagree on, or nil.
func (c *Checker) Compare(in []uint64) *Mismatch {
	nf := len(c.fields)
	for i, f := range c.fields {
		c.snap.Pkt[f] = in[i]
	}
	for i, s := range c.states {
		c.snap.State[s] = in[nf+i]
	}
	want, err := c.in.Run(c.prog, c.snap)
	if err != nil {
		return c.mismatch("", 0, 0, err)
	}
	copy(c.got, in)
	c.exec(c.got[:nf], c.got[nf:])
	for i, f := range c.fields {
		if c.got[i] != want.Pkt[f] {
			return c.mismatch("pkt."+f, c.got[i], want.Pkt[f], nil)
		}
	}
	for i, s := range c.states {
		if c.got[nf+i] != want.State[s] {
			return c.mismatch("state "+s, c.got[nf+i], want.State[s], nil)
		}
	}
	return nil
}

// mismatch records the evidence for the current input.
func (c *Checker) mismatch(v string, got, want uint64, err error) *Mismatch {
	return &Mismatch{Width: c.in.Width(), Input: c.snap.Clone(), Var: v, Got: got, Want: want, Err: err}
}

// Sweep calls visit with every vector of n w-bit values, in odometer order
// (the first value varies fastest), and returns the first non-nil result.
// The vector is reused between calls.
func Sweep[R any](w word.Width, n int, visit func(in []uint64) *R) *R {
	v := make([]uint64, n)
	for {
		if r := visit(v); r != nil {
			return r
		}
		if !w.Next(v) {
			return nil
		}
	}
}

// Probe calls visit with count vectors of n random w-bit values, drawing
// one rng.Uint64 per value in order, and returns the first non-nil
// result. The vector is reused between calls.
func Probe[R any](w word.Width, n int, rng *rand.Rand, count int, visit func(in []uint64) *R) *R {
	v := make([]uint64, n)
	for trial := 0; trial < count; trial++ {
		for i := range v {
			v[i] = w.Trunc(rng.Uint64())
		}
		if r := visit(v); r != nil {
			return r
		}
	}
	return nil
}

// Drive is the oracle's input driver. When the input space at
// ExhaustiveWidth fits ExhaustiveBits, it sweeps every input through
// check(cfg.WithRunWidth(ExhaustiveWidth)); then it fires probes random
// inputs at cfg's run width, seeded by seed, through check(cfg). It
// returns the first non-nil result.
func Drive[R any](cfg Config, seed int64, probes int, check func(Config) func(in []uint64) *R) *R {
	fields, states := cfg.Vars()
	n := len(fields) + len(states)
	if int(ExhaustiveWidth)*n <= ExhaustiveBits {
		if r := Sweep(ExhaustiveWidth, n, check(cfg.WithRunWidth(ExhaustiveWidth))); r != nil {
			return r
		}
	}
	return Probe(cfg.RunWidth(), n, rand.New(rand.NewSource(seed)), probes, check(cfg))
}

// CheckEquivalence is the equivalence oracle for a synthesized
// configuration: cfg must agree with the reference interpreter on every
// input Drive generates with ProbeBudget probes. CEGIS already proved
// equivalence through the SAT stack; this re-proves it without trusting
// internal/sat or internal/circuit.
func CheckEquivalence(prog *ast.Program, cfg Config, seed int64) *Mismatch {
	return Drive(cfg, seed, ProbeBudget, func(c Config) func([]uint64) *Mismatch {
		return NewChecker(prog, c).Compare
	})
}
