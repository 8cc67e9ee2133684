// Package pisa is the PISA compile target: the simplified Protocol
// Independent Switch Architecture of the paper's §2.2 and Figure 2, a 2D
// grid of ALUs in which the x axis is pipeline stages and the y axis is
// parallel ALUs within a stage. Packets enter from the left and leave from
// the right at one packet per clock; packet fields travel in PHV
// containers, state variables live inside stateful ALUs.
//
// The datapath is written once, generically over arith.Arith, and used two
// ways:
//
//   - concretely (V = uint64) as the test reference for Config.ExecInto,
//     the simulator that runs a synthesized configuration over packets,
//     and
//   - symbolically (V = circuit.Word) by Sketch, which feeds the same
//     datapath hole variables instead of concrete controls, producing the
//     SKETCH-style partial program that CEGIS solves.
//
// Because both instantiations share one definition, code generated by the
// synthesizer is guaranteed to mean the same thing when simulated — the
// property the paper gets by construction from SKETCH's single semantics.
//
// Backend adapts the grid onto the backend seam, as bpf.Backend does for
// the register machine. It implements both packet-field allocation modes
// of §3.1: canonical allocation (field k lives in container k; Figure 4
// shows this loses no expressiveness on homogeneous grids) and
// indicator-variable allocation (a free 0/1 matrix with permutation
// assertions), kept for the ablation benchmarks.
package pisa

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/word"
)

// GridSpec describes a simulated switch: the grid dimensions, the ALU
// variants installed at every grid point, and the datapath word width.
// It corresponds to the arguments Chipmunk takes "in addition to a Domino
// program: the number of stages in the pipeline, the pipeline width, and a
// specification of the input-output behavior of the stateful and stateless
// ALUs" (§3.1).
type GridSpec struct {
	// Stages is the pipeline depth (x axis of the grid).
	Stages int
	// Width is the number of PHV containers, which equals the number of
	// stateless ALUs and the number of stateful ALUs per stage (y axis).
	Width int
	// WordWidth is the datapath scalar width in bits.
	WordWidth word.Width
	// StatelessALU configures every stateless ALU in the grid
	// (homogeneous grids, as §3.1's symmetry argument assumes).
	StatelessALU alu.Stateless
	// StatefulALU configures every stateful ALU in the grid.
	StatefulALU alu.Stateful
}

// Validate checks the spec is physically sensible.
func (g GridSpec) Validate() error {
	if g.Stages < 1 {
		return fmt.Errorf("pisa: need at least 1 stage, got %d", g.Stages)
	}
	if g.Width < 1 {
		return fmt.Errorf("pisa: need width >= 1, got %d", g.Width)
	}
	if err := g.WordWidth.Validate(); err != nil {
		return err
	}
	if !g.StatefulALU.Kind.Valid() {
		return fmt.Errorf("pisa: unknown stateful ALU kind %d", int(g.StatefulALU.Kind))
	}
	return nil
}

// MinWidth is the narrowest datapath width at which the grid's holes can
// be instantiated without truncating a control hole: the widest non-data
// hole NewHoles makes (TestMinWidthMatchesNewHoles pins the two together).
// Data holes may truncate, because truncation commutes with the
// arithmetic they feed; see alu.HoleDef.
func (g GridSpec) MinWidth() word.Width {
	// Input and output muxes; salu_active and field_alloc are 1 bit.
	widest := max(1, g.InputMuxBits(), g.OutputMuxBits())
	for _, d := range slices.Concat(g.StatelessALU.Holes(), g.StatefulALU.Holes()) {
		if !d.Data {
			widest = max(widest, d.Bits)
		}
	}
	return word.Width(widest)
}

// StateSlots returns how many state variables the grid can hold per stage
// column: Width slots times the states-per-ALU of the stateful template.
func (g GridSpec) StateSlots() int {
	return g.Width * g.StatefulALU.NumStates()
}

// MuxBits returns the number of control bits needed to select one of n
// inputs.
func MuxBits(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// InputMuxBits is the control width for ALU input muxes (selecting among
// the Width PHV containers).
func (g GridSpec) InputMuxBits() int { return MuxBits(g.Width) }

// OutputMuxBits is the control width for a container's output mux, which
// selects among all Width stateful ALU outputs plus the container's own
// stateless ALU output (paper Appendix A).
func (g GridSpec) OutputMuxBits() int { return MuxBits(g.Width + 1) }

// Holes carries every Table 1 hardware configuration for a grid, with
// values of the generic instantiation type: concrete integers when part of
// a Config, symbolic hole words inside the sketch.
//
// Index convention: [stage][slot] for ALUs, [stage][container] for output
// muxes. Stateful input muxes are stored in the stateful hole maps under
// the names "imux0", "imux1", ...; stateless input muxes under "imux1",
// "imux2" (matching the appendix's sketch variable names).
type Holes[V any] struct {
	Stateless  [][]map[string]V
	Stateful   [][]map[string]V
	OMux       [][]V
	SaluActive [][]V
	// FieldAlloc, when non-nil, is the indicator-variable allocation
	// matrix I[field][container] of §3.1 (Figure 4's left side). When nil
	// the canonical allocation is used: field k lives in container k for
	// the entire pipeline.
	FieldAlloc [][]V
}

// NewHoles allocates a Holes structure shaped for the grid, with every
// value produced by the supplied constructor (which receives the hole's
// name and bit width). The sketch layer passes a constructor that allocates
// circuit input words; Config building passes one that reads concrete
// values.
func NewHoles[V any](g GridSpec, indicatorAlloc bool, numFields int, mk func(name string, bits int, data bool) V) *Holes[V] {
	h := &Holes[V]{}
	imb := g.InputMuxBits()
	omb := g.OutputMuxBits()
	for i := 0; i < g.Stages; i++ {
		slRow := make([]map[string]V, g.Width)
		sfRow := make([]map[string]V, g.Width)
		omRow := make([]V, g.Width)
		saRow := make([]V, g.Width)
		for j := 0; j < g.Width; j++ {
			sl := map[string]V{}
			for _, d := range g.StatelessALU.Holes() {
				sl[d.Name] = mk(fmt.Sprintf("stateless_%d_%d_%s", i, j, d.Name), d.Bits, d.Data)
			}
			sl["imux1"] = mk(fmt.Sprintf("stateless_%d_%d_imux1", i, j), imb, false)
			sl["imux2"] = mk(fmt.Sprintf("stateless_%d_%d_imux2", i, j), imb, false)
			slRow[j] = sl

			sf := map[string]V{}
			for _, d := range g.StatefulALU.Holes() {
				sf[d.Name] = mk(fmt.Sprintf("stateful_%d_%d_%s", i, j, d.Name), d.Bits, d.Data)
			}
			for k := 0; k < g.StatefulALU.NumPacketOperands(); k++ {
				sf[imuxNames[k]] = mk(fmt.Sprintf("stateful_%d_%d_imux%d", i, j, k), imb, false)
			}
			sfRow[j] = sf

			omRow[j] = mk(fmt.Sprintf("omux_%d_%d", i, j), omb, false)
			saRow[j] = mk(fmt.Sprintf("salu_active_%d_%d", i, j), 1, false)
		}
		h.Stateless = append(h.Stateless, slRow)
		h.Stateful = append(h.Stateful, sfRow)
		h.OMux = append(h.OMux, omRow)
		h.SaluActive = append(h.SaluActive, saRow)
	}
	if indicatorAlloc {
		for f := 0; f < numFields; f++ {
			row := make([]V, g.Width)
			for c := 0; c < g.Width; c++ {
				row[c] = mk(fmt.Sprintf("field_alloc_%d_%d", f, c), 1, false)
			}
			h.FieldAlloc = append(h.FieldAlloc, row)
		}
	}
	return h
}

// MapHoles applies f to every hole value, preserving structure. It is how
// the sketch layer widens hole words per instantiation and how concrete
// configurations are lifted into constant circuit words for verification.
func MapHoles[A, B any](h *Holes[A], f func(A) B) *Holes[B] {
	out := &Holes[B]{}
	mapRow := func(m map[string]A) map[string]B {
		r := make(map[string]B, len(m))
		for k, v := range m {
			r[k] = f(v)
		}
		return r
	}
	for i := range h.Stateless {
		var slRow, sfRow []map[string]B
		var omRow, saRow []B
		for j := range h.Stateless[i] {
			slRow = append(slRow, mapRow(h.Stateless[i][j]))
			sfRow = append(sfRow, mapRow(h.Stateful[i][j]))
			omRow = append(omRow, f(h.OMux[i][j]))
			saRow = append(saRow, f(h.SaluActive[i][j]))
		}
		out.Stateless = append(out.Stateless, slRow)
		out.Stateful = append(out.Stateful, sfRow)
		out.OMux = append(out.OMux, omRow)
		out.SaluActive = append(out.SaluActive, saRow)
	}
	for fi := range h.FieldAlloc {
		var row []B
		for c := range h.FieldAlloc[fi] {
			row = append(row, f(h.FieldAlloc[fi][c]))
		}
		out.FieldAlloc = append(out.FieldAlloc, row)
	}
	return out
}

// Datapath pushes one packet through the grid: fields is the packet's
// field vector in allocation order (length numFields <= Width), states the
// state vector in canonical slot order (length <= StateSlots). It returns
// the transformed field and state vectors.
//
// This function is the Go rendering of the paper's Appendix A sketch,
// generalized to any grid size and parameterized by Holes values.
func Datapath[V any](a arith.Arith[V], g GridSpec, h *Holes[V], fields, states []V) (outFields, outStates []V) {
	zero := a.ConstInt(0)
	one := a.ConstInt(1)

	// Load packet fields into PHV containers.
	containers := make([]V, g.Width)
	if h.FieldAlloc == nil {
		// Canonical allocation: field k -> container k.
		for c := range containers {
			if c < len(fields) {
				containers[c] = fields[c]
			} else {
				containers[c] = zero
			}
		}
	} else {
		// Indicator-variable allocation: container c holds the field f
		// with I[f][c] == 1 (the sketch asserts I is a partial
		// permutation matrix).
		for c := range containers {
			acc := zero
			for f := range h.FieldAlloc {
				acc = a.Mux(h.FieldAlloc[f][c], fields[f], acc)
			}
			containers[c] = acc
		}
	}

	// State vector, padded to full capacity.
	ns := g.StatefulALU.NumStates()
	stateVec := make([]V, g.StateSlots())
	for i := range stateVec {
		if i < len(states) {
			stateVec[i] = states[i]
		} else {
			stateVec[i] = zero
		}
	}

	for i := 0; i < g.Stages; i++ {
		inputs := containers

		// Stateless ALUs: one per container, writing its dedicated
		// destination wire.
		dest := make([]V, g.Width)
		for j := 0; j < g.Width; j++ {
			holes := h.Stateless[i][j]
			opA := arith.Select(a, holes["imux1"], inputs...)
			opB := arith.Select(a, holes["imux2"], inputs...)
			dest[j] = alu.EvalStateless(a, holes, opA, opB)
		}

		// Stateful ALUs: always execute (appendix semantics); the state
		// operand reads the allocated variable only when the ALU is
		// active in this stage, else zero, and write-back happens only
		// when active.
		sfOut := make([]V, g.Width)
		for j := 0; j < g.Width; j++ {
			holes := h.Stateful[i][j]
			active := a.Eq(h.SaluActive[i][j], one)
			pktOps := make([]V, g.StatefulALU.NumPacketOperands())
			for k := range pktOps {
				pktOps[k] = arith.Select(a, holes[imuxNames[k]], inputs...)
			}
			stIn := make([]V, ns)
			for k := 0; k < ns; k++ {
				stIn[k] = a.Mux(active, stateVec[j*ns+k], zero)
			}
			newSt, out := alu.EvalStateful(a, g.StatefulALU, holes, stIn, pktOps)
			for k := 0; k < ns; k++ {
				stateVec[j*ns+k] = a.Mux(active, newSt[k], stateVec[j*ns+k])
			}
			sfOut[j] = out
		}

		// Output muxes: container j's next value comes from any stateful
		// ALU output or from its own stateless ALU.
		next := make([]V, g.Width)
		for j := 0; j < g.Width; j++ {
			opts := make([]V, 0, g.Width+1)
			opts = append(opts, sfOut...)
			opts = append(opts, dest[j])
			next[j] = arith.Select(a, h.OMux[i][j], opts...)
		}
		containers = next
	}

	// Unload fields from containers.
	outFields = make([]V, len(fields))
	if h.FieldAlloc == nil {
		for f := range outFields {
			outFields[f] = containers[f]
		}
	} else {
		for f := range outFields {
			acc := zero
			for c := 0; c < g.Width; c++ {
				acc = a.Mux(h.FieldAlloc[f][c], containers[c], acc)
			}
			outFields[f] = acc
		}
	}
	outStates = stateVec[:len(states)]
	return outFields, outStates
}

// --- Concrete configurations --------------------------------------------------

// Config is a fully synthesized hardware configuration: concrete values for
// every hole in the grid, plus the variable allocation that maps program
// names to grid resources. It is the artifact Chipmunk produces and the
// simulator executes.
type Config struct {
	Grid GridSpec `json:"grid"`
	// Fields lists packet fields in allocation order (canonical: field k
	// occupies container k, or the indicator matrix below).
	Fields []string `json:"fields"`
	// States lists state variables in canonical slot order.
	States []string `json:"states"`
	// Values holds every hole's concrete value.
	Values *Holes[uint64] `json:"values"`
}

// Validate checks structural consistency and the allocation constraints
// (each used state slot active in exactly one stage; indicator matrix a
// partial permutation).
func (c *Config) Validate() error {
	if err := c.Grid.Validate(); err != nil {
		return err
	}
	if err := c.validateShape(); err != nil {
		return err
	}
	if len(c.Fields) > c.Grid.Width && c.Values.FieldAlloc == nil {
		return fmt.Errorf("pisa: %d fields exceed %d containers", len(c.Fields), c.Grid.Width)
	}
	if len(c.States) > c.Grid.StateSlots() {
		return fmt.Errorf("pisa: %d state variables exceed %d slots", len(c.States), c.Grid.StateSlots())
	}
	ns := c.Grid.StatefulALU.NumStates()
	usedSlots := (len(c.States) + ns - 1) / ns
	for j := 0; j < c.Grid.Width; j++ {
		count := 0
		for i := 0; i < c.Grid.Stages; i++ {
			if c.Values.SaluActive[i][j] != 0 {
				count++
			}
		}
		if j < usedSlots && count != 1 {
			return fmt.Errorf("pisa: state slot %d active in %d stages, want exactly 1", j, count)
		}
		if j >= usedSlots && count != 0 {
			return fmt.Errorf("pisa: unused state slot %d is active", j)
		}
	}
	if m := c.Values.FieldAlloc; m != nil {
		for f := range m {
			sum := uint64(0)
			for c, v := range m[f] {
				// Indicators are 1-bit holes; a wider value could wrap
				// the sums below.
				if v > 1 {
					return fmt.Errorf("pisa: field %d container %d indicator is %d, want 0 or 1", f, c, v)
				}
				sum += v
			}
			if sum != 1 {
				return fmt.Errorf("pisa: field %d allocated to %d containers, want exactly 1", f, sum)
			}
		}
		for cc := 0; cc < c.Grid.Width; cc++ {
			sum := uint64(0)
			for f := range m {
				sum += m[f][cc]
			}
			if sum > 1 {
				return fmt.Errorf("pisa: container %d holds %d fields, want at most 1", cc, sum)
			}
		}
	}
	return nil
}

// validateShape checks that the hole tables are the grid's shape, so
// nothing downstream indexes past them: every per-ALU table is Stages ×
// Width, the indicator matrix (when set) has one Width-long row per field,
// and every stateful ALU carries each hole its template reads.
func (c *Config) validateShape() error {
	h, g := c.Values, c.Grid
	if h == nil {
		return fmt.Errorf("pisa: configuration has no hole values")
	}
	for _, err := range []error{
		checkTable("stateless", h.Stateless, g.Stages, g.Width),
		checkTable("stateful", h.Stateful, g.Stages, g.Width),
		checkTable("omux", h.OMux, g.Stages, g.Width),
		checkTable("salu_active", h.SaluActive, g.Stages, g.Width),
	} {
		if err != nil {
			return err
		}
	}
	if h.FieldAlloc != nil {
		if err := checkTable("field_alloc", h.FieldAlloc, len(c.Fields), g.Width); err != nil {
			return err
		}
	}
	var need []string
	for _, d := range g.StatefulALU.Holes() {
		need = append(need, d.Name)
	}
	need = append(need, imuxNames[:g.StatefulALU.NumPacketOperands()]...)
	for i, row := range h.Stateful {
		for j, m := range row {
			for _, name := range need {
				if _, ok := m[name]; !ok {
					return fmt.Errorf("pisa: stateful ALU (%d, %d) has no %q hole", i, j, name)
				}
			}
		}
	}
	return nil
}

// checkTable returns an error unless t is rows × cols.
func checkTable[T any](name string, t [][]T, rows, cols int) error {
	if len(t) != rows {
		return fmt.Errorf("pisa: %s has %d rows, want %d", name, len(t), rows)
	}
	for i, row := range t {
		if len(row) != cols {
			return fmt.Errorf("pisa: %s row %d has %d entries, want %d", name, i, len(row), cols)
		}
	}
	return nil
}

// --- Allocation-free execution -------------------------------------------------

// ExecScratch holds the buffers ExecInto threads one packet through the
// pipeline with. Allocate once per goroutine with NewScratch and reuse it
// across packets; the hot interpreter-side loops (difftest equivalence
// probes, the benchmark's interpreter baseline) then run without
// per-packet allocation.
type ExecScratch struct {
	// a holds the concrete arithmetic pre-boxed as an interface so the
	// per-packet path performs no interface conversion (which would
	// otherwise heap-allocate the Conc value on every call).
	a          arith.Arith[uint64]
	containers []uint64
	dest       []uint64
	sfOut      []uint64
	stateVec   []uint64
	pktOps     []uint64
	stIn       []uint64
	newSt      []uint64
}

// NewScratch allocates an ExecScratch sized for this configuration's grid.
func (c *Config) NewScratch() *ExecScratch {
	g := c.Grid
	ns := g.StatefulALU.NumStates()
	return &ExecScratch{
		a:          arith.Conc{W: g.WordWidth},
		containers: make([]uint64, g.Width),
		dest:       make([]uint64, g.Width),
		sfOut:      make([]uint64, g.Width),
		stateVec:   make([]uint64, g.StateSlots()),
		pktOps:     make([]uint64, g.StatefulALU.NumPacketOperands()),
		stIn:       make([]uint64, ns),
		newSt:      make([]uint64, ns),
	}
}

// imuxNames indexes the stateful input-mux hole names without formatting.
var imuxNames = [...]string{"imux0", "imux1"}

// ExecInto runs one packet transaction with caller-owned buffers: fields
// and states are value vectors in Fields/States order, truncated to the
// datapath width on entry and overwritten with the transaction's outputs.
// It is bit-identical to the generic Datapath over uint64 (property-tested
// exhaustively at small widths and randomly at full width) but
// allocation-free: the datapath plumbing is specialized to concrete uint64
// values, while all ALU semantics still evaluate through the shared
// generic definitions in internal/alu.
func (c *Config) ExecInto(s *ExecScratch, fields, states []uint64) {
	a := s.a
	g := c.Grid
	w := g.WordWidth
	ns := g.StatefulALU.NumStates()
	npkt := g.StatefulALU.NumPacketOperands()
	cur := s.containers

	// Load packet fields into PHV containers (canonical or indicator
	// allocation; the Mux chain's "last writer wins" order is preserved,
	// though Validate guarantees uniqueness).
	if c.Values.FieldAlloc == nil {
		for j := 0; j < g.Width; j++ {
			if j < len(fields) {
				cur[j] = w.Trunc(fields[j])
			} else {
				cur[j] = 0
			}
		}
	} else {
		for j := 0; j < g.Width; j++ {
			var v uint64
			for f := range c.Values.FieldAlloc {
				if word.Truthy(c.Values.FieldAlloc[f][j]) {
					v = w.Trunc(fields[f])
				}
			}
			cur[j] = v
		}
	}

	// State vector, padded to full capacity.
	for i := range s.stateVec {
		if i < len(states) {
			s.stateVec[i] = w.Trunc(states[i])
		} else {
			s.stateVec[i] = 0
		}
	}

	for i := 0; i < g.Stages; i++ {
		// Stateless ALUs.
		for j := 0; j < g.Width; j++ {
			holes := c.Values.Stateless[i][j]
			opA := cur[w.SelIdx(holes["imux1"], g.Width)]
			opB := cur[w.SelIdx(holes["imux2"], g.Width)]
			s.dest[j] = alu.EvalStateless[uint64](a, holes, opA, opB)
		}
		// Stateful ALUs: always execute; the state operand reads the
		// allocated variable only when active, write-back only when active.
		for j := 0; j < g.Width; j++ {
			holes := c.Values.Stateful[i][j]
			active := w.Eq(c.Values.SaluActive[i][j], 1) != 0
			for k := 0; k < npkt; k++ {
				s.pktOps[k] = cur[w.SelIdx(holes[imuxNames[k]], g.Width)]
			}
			for k := 0; k < ns; k++ {
				if active {
					s.stIn[k] = s.stateVec[j*ns+k]
				} else {
					s.stIn[k] = 0
				}
			}
			s.sfOut[j] = alu.EvalStatefulInto[uint64](a, g.StatefulALU, holes, s.stIn, s.pktOps, s.newSt)
			if active {
				copy(s.stateVec[j*ns:j*ns+ns], s.newSt)
			}
		}
		// Output muxes, written back into the container vector in place
		// (safe: dest and sfOut snapshots already hold this stage's reads).
		for j := 0; j < g.Width; j++ {
			if sel := w.SelIdx(c.Values.OMux[i][j], g.Width+1); sel < g.Width {
				cur[j] = s.sfOut[sel]
			} else {
				cur[j] = s.dest[j]
			}
		}
	}

	// Unload fields from containers.
	if c.Values.FieldAlloc == nil {
		copy(fields, cur[:len(fields)])
	} else {
		for f := range fields {
			var v uint64
			for j := 0; j < g.Width; j++ {
				if word.Truthy(c.Values.FieldAlloc[f][j]) {
					v = cur[j]
				}
			}
			fields[f] = v
		}
	}
	copy(states, s.stateVec[:len(states)])
}

// --- Resource accounting -------------------------------------------------------

// Usage reports the resources a configuration actually consumes — the
// metrics of the paper's Figure 5: the number of pipeline stages used and
// the maximum number of ALUs used in any stage.
type Usage struct {
	Stages          int `json:"stages"`
	MaxALUsPerStage int `json:"max_alus_per_stage"`
	TotalALUs       int `json:"total_alus"`
}

// Usage computes resource usage by tracing which ALUs can influence the
// final output: an ALU counts as used when its stage's output muxes select
// it or it holds an active state variable.
func (c *Config) Usage() Usage {
	var u Usage
	g := c.Grid
	for i := 0; i < g.Stages; i++ {
		used := map[string]bool{}
		for j := 0; j < g.Width; j++ {
			sel := c.Values.OMux[i][j]
			if int(sel) < g.Width {
				// A stateful ALU's output is routed somewhere.
				used[fmt.Sprintf("sf%d", sel)] = true
			} else {
				// The container's own stateless ALU output. Pass-through
				// configurations (pass_a from the same container) do not
				// consume an ALU.
				holes := c.Values.Stateless[i][j]
				if !(holes["opcode"] == alu.SlOpPassA && int(holes["imux1"]) == j) {
					used[fmt.Sprintf("sl%d", j)] = true
				}
			}
		}
		for j := 0; j < g.Width; j++ {
			if c.Values.SaluActive[i][j] != 0 {
				used[fmt.Sprintf("sf%d", j)] = true
			}
		}
		if len(used) > 0 {
			u.Stages = i + 1 // stages are used up to the last active one
		}
		if len(used) > u.MaxALUsPerStage {
			u.MaxALUsPerStage = len(used)
		}
		u.TotalALUs += len(used)
	}
	return u
}

// String renders a human-readable configuration dump for the CLI tools.
func (c *Config) String() string {
	var sb strings.Builder
	g := c.Grid
	fmt.Fprintf(&sb, "grid: %d stages x %d width, %d-bit datapath, stateful ALU %s\n",
		g.Stages, g.Width, g.WordWidth, g.StatefulALU.Kind)
	fmt.Fprintf(&sb, "fields: %v\n", c.Fields)
	fmt.Fprintf(&sb, "states: %v\n", c.States)
	for i := 0; i < g.Stages; i++ {
		fmt.Fprintf(&sb, "stage %d:\n", i)
		for j := 0; j < g.Width; j++ {
			sl := c.Values.Stateless[i][j]
			fmt.Fprintf(&sb, "  stateless[%d]: %s imm=%d imux=(%d,%d)\n",
				j, alu.StatelessOpName(sl["opcode"]), sl["imm"], sl["imux1"], sl["imux2"])
		}
		for j := 0; j < g.Width; j++ {
			sf := c.Values.Stateful[i][j]
			if c.Values.SaluActive[i][j] == 0 {
				continue
			}
			fmt.Fprintf(&sb, "  stateful[%d] (active): %v\n", j, holeString(sf))
		}
		for j := 0; j < g.Width; j++ {
			sel := c.Values.OMux[i][j]
			src := fmt.Sprintf("stateful[%d]", sel)
			if int(sel) >= g.Width {
				src = fmt.Sprintf("stateless[%d]", j)
			}
			fmt.Fprintf(&sb, "  container[%d] <- %s\n", j, src)
		}
	}
	return sb.String()
}

func holeString(h map[string]uint64) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	// Sort for determinism.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, h[k])
	}
	return strings.Join(parts, " ")
}
