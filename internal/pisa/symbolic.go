package pisa

import (
	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/word"
)

// This file implements the backend.Config contract for *Config.
// Target/Vars/RunWidth expose the allocation metadata the generic CEGIS
// core and the equivalence oracle need, NewExecutor and Exec run the
// configured grid concretely, and Symbolic re-encodes it as a circuit —
// the exact construction cegis verification historically inlined, now
// owned by the config so every backend carries its own verification
// semantics.

// Target names the backend that produced this configuration.
func (c *Config) Target() string { return "pisa" }

// Vars returns the packet fields and state variables in allocation order.
func (c *Config) Vars() (fields, states []string) { return c.Fields, c.States }

// RunWidth is the datapath width the configuration is proven at.
func (c *Config) RunWidth() word.Width { return c.Grid.WordWidth }

// WithRunWidth returns a copy of the configuration whose datapath runs at
// width w. The copy shares the hole values.
func (c *Config) WithRunWidth(w word.Width) backend.Config {
	cp := *c
	cp.Grid.WordWidth = w
	return &cp
}

// NewExecutor binds ExecInto to a fresh ExecScratch.
func (c *Config) NewExecutor() func(fields, states []uint64) {
	s := c.NewScratch()
	return func(fields, states []uint64) { c.ExecInto(s, fields, states) }
}

// Exec runs one packet transaction over maps; see backend.Exec.
func (c *Config) Exec(pkt, state map[string]uint64) (outPkt, outState map[string]uint64) {
	return backend.Exec(c, pkt, state)
}

// Symbolic renders the configured datapath at width w over free input
// words, with every hole lifted to a constant (ConstWord creates no
// gates, so hole-map iteration order cannot perturb the circuit).
func (c *Config) Symbolic(b *circuit.Builder, w word.Width, fields, states []circuit.Word) (outFields, outStates []circuit.Word) {
	g := c.Grid
	g.WordWidth = w
	holes := MapHoles(c.Values, func(v uint64) circuit.Word {
		return b.ConstWord(v, w)
	})
	cc := arith.Circ{B: b, W: w}
	return Datapath[circuit.Word](cc, g, holes, fields, states)
}
