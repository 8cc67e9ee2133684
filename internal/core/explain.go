// Infeasibility forensics at the compiler level: map the CEGIS
// explanation pass's blamed constraint groups onto a resource dimension
// and source statements, and attach the result to the compile Report.

package core

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/cegis"
	"repro/internal/circuit"
	"repro/internal/obs"
)

// Binding resource dimensions an Explanation can name.
const (
	// DimStageDepth: the program needs more pipeline stages than allowed
	// (pisa).
	DimStageDepth = "stage-depth"
	// DimSlots: the program needs more instruction slots than allowed
	// (bpf).
	DimSlots = "instruction-slots"
	// DimALUBudget: not enough containers/ALUs per stage for the
	// program's packet fields.
	DimALUBudget = "alu-budget"
	// DimStateCells: not enough stateful-ALU cells for the program's
	// state variables, or the state-allocation constraints bind.
	DimStateCells = "state-cells"
	// DimOpcodeMask: the per-deployment opcode vocabulary excludes an
	// operation the program needs.
	DimOpcodeMask = "opcode-mask"
)

// Explanation is the structured forensics report attached to an
// infeasible compile when Options.Explain is set: which resource
// dimension binds, which constraint groups (and hence source statements)
// are jointly unsatisfiable, and what the diagnosis cost.
type Explanation struct {
	// Dimension is the binding resource (Dim* constants).
	Dimension string `json:"dimension"`
	// Size is the program size (stages or slots) the forensics re-run
	// probed — the most generous size the failed search was allowed.
	Size int `json:"size"`
	// BlamedGroups is the minimal set of named constraint groups that is
	// jointly unsatisfiable (see circuit group vocabulary). Empty when
	// the rejection needed no solving (capacity pre-check).
	BlamedGroups []string `json:"blamed_groups,omitempty"`
	// Minimal reports that dropping any single blamed group flips the
	// verdict to SAT (deletion-minimization ran to completion).
	Minimal bool `json:"minimal"`
	// BlamedStatements renders the source statements assigning the
	// blamed outputs, in program order.
	BlamedStatements []string `json:"blamed_statements,omitempty"`
	// Iters and Tests describe the gated re-run; Timeline is its
	// per-iteration effort log (plus minimization probes).
	Iters    int                 `json:"iters"`
	Tests    int                 `json:"tests"`
	Timeline []cegis.ExplainStep `json:"timeline,omitempty"`
	// Elapsed is the wall-clock cost of the forensics pass alone.
	Elapsed time.Duration `json:"elapsed_ns"`
	// Incomplete notes why the explanation is partial ("timeout" when
	// the context expired mid-forensics, "error: ..." when the pass
	// failed); empty for a complete diagnosis.
	Incomplete string `json:"incomplete,omitempty"`
}

// Render formats the explanation as the human-readable report the CLI
// prints under -explain.
func (e *Explanation) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "binding resource: %s (at size %d)\n", e.Dimension, e.Size)
	if len(e.BlamedGroups) > 0 {
		min := "minimal"
		if !e.Minimal {
			min = "not proven minimal"
		}
		fmt.Fprintf(&sb, "blamed constraint groups (%s):\n", min)
		for _, g := range e.BlamedGroups {
			fmt.Fprintf(&sb, "  %s\n", g)
		}
	}
	if len(e.BlamedStatements) > 0 {
		sb.WriteString("blamed statements:\n")
		for _, s := range e.BlamedStatements {
			fmt.Fprintf(&sb, "  %s\n", s)
		}
	}
	fmt.Fprintf(&sb, "forensics effort: %d iterations, %d tests, %d timeline steps in %s\n",
		e.Iters, e.Tests, len(e.Timeline), e.Elapsed.Round(time.Millisecond))
	if e.Incomplete != "" {
		fmt.Fprintf(&sb, "explanation incomplete: %s\n", e.Incomplete)
	}
	return sb.String()
}

// maybeExplain runs the forensics pass after a search that concluded
// infeasible (not timed out, not cached) when Options.Explain is set, and
// attaches the Explanation to the report. It never fails the compile:
// forensics errors are recorded on the Explanation itself.
func maybeExplain(ctx context.Context, prog *ast.Program, opts Options, rep *Report) {
	if !opts.Explain || rep.Feasible || rep.TimedOut || rep.Cached {
		return
	}
	// Symmetry breaking is deliberately stripped here: its constraints are
	// search-space pruning, not physics, and letting them into the gated
	// encoding could surface circuit.GroupSymmetry in UNSAT cores and
	// shift the blamed dimension. Forensics verdicts (and the -explain
	// output) are therefore identical with symmetry breaking on or off.
	be, err := backendFor(opts, false)
	if err != nil {
		return
	}
	size := opts.maxStages()
	ectx, espan := obs.StartSpan(ctx, "explain", obs.Int("size", size))

	// The span's end folds outcome into the explain.* counters.
	exp, outcome := &Explanation{Size: size}, "error"
	rep.Explanation = exp
	defer func() {
		espan.End(obs.String("outcome", outcome), obs.String("dimension", exp.Dimension),
			obs.Int("blamed_groups", len(exp.BlamedGroups)),
			obs.Bool("minimal", exp.Minimal))
	}()

	xres, err := cegis.Explain(ectx, prog, be, size, cegis.Options{
		SynthWidth:     opts.SynthWidth,
		VerifyWidth:    opts.VerifyWidth,
		IndicatorAlloc: opts.IndicatorAlloc,
		Seed:           opts.Seed,
	})
	if err != nil {
		exp.Incomplete = "error: " + err.Error()
		exp.Dimension = capacityDimension(prog, opts)
		return
	}
	exp.Iters = xres.Iters
	exp.Tests = xres.Tests
	exp.Timeline = xres.Timeline
	exp.Elapsed = xres.Elapsed
	exp.BlamedGroups = xres.Core
	exp.Minimal = xres.Minimal
	exp.BlamedStatements = cegis.BlamedStatements(prog, xres.Core)

	switch {
	case xres.CapacityExceeded:
		outcome = "capacity"
		exp.Dimension = capacityDimension(prog, opts)
	case xres.TimedOut:
		outcome = "timeout"
		exp.Incomplete = "timeout"
		exp.Dimension = inferDimension(opts, xres.Core)
	case xres.Feasible:
		// The gated re-run found a solution the original search missed
		// (possible only when the original failure was iteration-bounded).
		outcome = "feasible"
		exp.Incomplete = "gated re-run found the sketch feasible"
		exp.Dimension = inferDimension(opts, nil)
	default:
		outcome = "infeasible"
		exp.Dimension = inferDimension(opts, xres.Core)
	}
}

// inferDimension names the binding resource from a minimal core's group
// composition: a domain group in the core means that constraint family is
// part of every refutation; a core of output groups alone means the
// machine at this size simply cannot compute those outputs — the size
// axis (stages or slots) binds.
func inferDimension(opts Options, core []string) string {
	hasOpcode, hasState, hasField := false, false, false
	for _, g := range core {
		switch g {
		case circuit.GroupOpcodeMask:
			hasOpcode = true
		case circuit.GroupStateAlloc:
			hasState = true
		case circuit.GroupFieldAlloc:
			hasField = true
		}
	}
	switch {
	case hasOpcode:
		return DimOpcodeMask
	case hasState:
		return DimStateCells
	case hasField:
		return DimALUBudget
	case opts.targetName() == "bpf":
		return DimSlots
	}
	return DimStageDepth
}

// capacityDimension names the binding resource for capacity-pre-check
// rejections, which fail before any CNF exists: too many state variables
// for the grid's stateful cells, or too many packet fields for its
// containers/registers.
func capacityDimension(prog *ast.Program, opts Options) string {
	vars := prog.Variables()
	if opts.targetName() == "pisa" {
		g := gridSpec(opts)
		g.Stages = opts.maxStages()
		if len(vars.States) > g.StateSlots() {
			return DimStateCells
		}
		return DimALUBudget
	}
	return DimALUBudget
}
