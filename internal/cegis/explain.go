// Infeasibility forensics: when CEGIS proves a program unmappable, re-run
// the synthesis encoding with named constraint groups and extract a
// minimal UNSAT core over them, so the caller can report *which* outputs
// and *which* domain constraints are jointly unsatisfiable instead of an
// opaque "infeasible".
//
// The pass is strictly post-hoc: the normal compile path never enables
// groups, so its clause stream and solver counters are untouched. Explain
// re-runs the CEGIS loop gated at the failed size with the same seed, which
// costs roughly one extra compile attempt — acceptable because it only
// runs after a compile has already failed.

package cegis

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/obs"
	"repro/internal/sat"
)

// ExplainStep is one entry of an explanation's effort timeline: a CEGIS
// phase or a core-minimization probe, with its solver effort.
type ExplainStep struct {
	Iter      int           `json:"iter"`
	Phase     string        `json:"phase"` // "synth", "verify", "minimize"
	Outcome   string        `json:"outcome"`
	Conflicts int64         `json:"conflicts"`
	Elapsed   time.Duration `json:"elapsed_ns"`
}

// ExplainResult is the raw outcome of the forensics pass: the blamed
// constraint groups and how much work it took to find them. Mapping the
// groups onto resource dimensions and source statements is the caller's
// job (internal/core), since it owns the notion of targets and budgets.
type ExplainResult struct {
	// Groups is every named constraint group the gated encoding emitted.
	Groups []string `json:"groups"`
	// Core is the blamed subset: solving under only these groups is
	// already UNSAT, and when Minimal is true, dropping any single one
	// flips the verdict to SAT.
	Core []string `json:"core"`
	// Minimal reports whether the deletion-based minimization pass ran to
	// completion (false when the context expired mid-minimization).
	Minimal bool `json:"minimal"`
	// Iters and Tests describe the gated mini-CEGIS run that produced the
	// UNSAT: iterations executed and concrete tests accumulated.
	Iters int `json:"iters"`
	Tests int `json:"tests"`
	// Timeline is the per-iteration and per-minimization-probe effort log.
	Timeline []ExplainStep `json:"timeline"`
	// CapacityExceeded is set when the backend's capacity pre-check
	// rejects the program outright (more variables than the machine has
	// containers); no solving happens and Core is empty.
	CapacityExceeded bool `json:"capacity_exceeded,omitempty"`
	// Feasible is set when the gated re-run unexpectedly synthesized a
	// configuration (possible when the original failure was
	// iteration-bounded rather than UNSAT); no core exists then.
	Feasible bool `json:"feasible,omitempty"`
	// TimedOut is set when the context expired before a core was found.
	TimedOut bool `json:"timed_out,omitempty"`
	// Elapsed is the total wall-clock cost of the forensics pass.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Explain re-runs synthesis for prog on be at the given size with
// constraint-group tracking enabled and returns a minimal set of named
// groups that is jointly unsatisfiable. It should be called only after a
// normal (ungated) run concluded infeasible, with the same seed and
// widths. The gated run is SynthesizeOn's two-tier loop over the same
// initial tests; its synthesis solves run under group assumptions, so
// its search, and the counterexamples it meets, may differ.
func Explain(ctx context.Context, prog *ast.Program, be backend.Backend, size int, opts Options) (*ExplainResult, error) {
	res, _, _, err := explainOn(ctx, prog, be, size, opts)
	return res, err
}

// AuditCore re-runs the forensics pass and then audits the blamed core
// in place, against the same gated encoding, by direct solver re-solves:
// the core alone must still be UNSAT under its group assumptions, and
// dropping any single member must flip the verdict to SAT. The audit
// exercises the whole assumption pipeline — selector allocation,
// final-conflict analysis, deletion minimization — end to end, so a
// defect means the forensics machinery is wrong, not the program.
// Defects come back as human-readable strings; the list is empty when
// the audit passes or does not apply (capacity rejection, timeout, a
// feasible rerun, or an incomplete minimization).
func AuditCore(ctx context.Context, prog *ast.Program, be backend.Backend, size int, opts Options) (*ExplainResult, []string, error) {
	res, solver, cnf, err := explainOn(ctx, prog, be, size, opts)
	if err != nil || res.CapacityExceeded || res.TimedOut || res.Feasible || !res.Minimal {
		return res, nil, err
	}
	if len(res.Core) == 0 {
		return res, []string{"minimal core is empty: the hard (ungrouped) clauses alone are unsatisfiable"}, nil
	}
	var defects []string
	st, timedOut := solveWithContext(ctx, solver, cnf.GroupAssumptions(res.Core)...)
	if timedOut {
		return res, defects, nil
	}
	if st != sat.Unsat {
		defects = append(defects, fmt.Sprintf("blamed core %v re-solves %v under its own assumptions, want UNSAT", res.Core, st))
	}
	for i, g := range res.Core {
		rest := make([]string, 0, len(res.Core)-1)
		rest = append(rest, res.Core[:i]...)
		rest = append(rest, res.Core[i+1:]...)
		st, timedOut := solveWithContext(ctx, solver, cnf.GroupAssumptions(rest)...)
		if timedOut {
			return res, defects, nil
		}
		if st == sat.Unsat {
			defects = append(defects, fmt.Sprintf("core not minimal: dropping %q still leaves %v unsatisfiable", g, rest))
		}
	}
	return res, defects, nil
}

// explainOn is Explain's body; it additionally hands back the live solver
// and gated CNF so AuditCore can run follow-up assumption solves against
// the exact clause set the core was extracted from. Solver and cnf are
// nil when the pass errored or was rejected before the encoding existed.
func explainOn(ctx context.Context, prog *ast.Program, be backend.Backend, size int, opts Options) (*ExplainResult, *sat.Solver, *circuit.CNF, error) {
	start := time.Now()
	res := &ExplainResult{}
	defer func() { res.Elapsed = time.Since(start) }()

	// The rerun is forensics, not compile work: it runs untraced and
	// unmetered, so it adds nothing to the compile's CEGIS spans and
	// counters.
	ctx = obs.ContextWithMetrics(obs.ContextWithTracer(ctx, nil), nil)
	l, err := newLoop(ctx, prog, be, size, opts, &Result{}, true)
	if err != nil {
		return nil, nil, nil, err
	}
	if l == nil {
		res.CapacityExceeded = true
		return res, nil, nil, nil
	}
	v, _, err := l.run(ctx, opts.maxIters())
	if err != nil {
		return nil, nil, nil, err
	}
	res.Iters, res.Tests, res.Timeline = l.res.Iters, l.res.Tests, l.timeline
	switch v {
	case infeasible:
		return res, l.solver, l.cnf, minimizeCore(ctx, res, l.solver, l.cnf)
	case feasible:
		res.Feasible = true
	default:
		// A timeout, or the iteration bound reached without an UNSAT:
		// nothing to blame.
		res.TimedOut = true
	}
	return res, l.solver, l.cnf, nil
}

// minimizeCore shrinks the solver's UNSAT core to a minimal group set by
// deletion: drop one group at a time and re-solve under the remainder;
// still-UNSAT means the dropped group was not needed. The discipline is
// the difftest shrinker's — destructive, deterministic, each probe either
// commits or reverts — applied to assumption sets instead of inputs. On
// completion every remaining group is necessary: dropping any one of them
// flips the verdict to SAT.
func minimizeCore(ctx context.Context, res *ExplainResult, solver *sat.Solver, cnf *circuit.CNF) error {
	step := func(probe int, outcome string, conflicts int64, since time.Time) {
		res.Timeline = append(res.Timeline, ExplainStep{Iter: probe, Phase: "minimize", Outcome: outcome,
			Conflicts: conflicts, Elapsed: time.Since(since)})
	}
	res.Groups = cnf.Groups()
	core := coreNames(solver.UnsatCore(), cnf)
	probe := 0
	for i := 0; i < len(core); {
		cand := make([]string, 0, len(core)-1)
		cand = append(cand, core[:i]...)
		cand = append(cand, core[i+1:]...)
		probe++
		phaseStart := time.Now()
		st, timedOut := solveWithContext(ctx, solver, cnf.GroupAssumptions(cand)...)
		delta := solver.StatsDelta()
		if timedOut {
			step(probe, "timeout", delta.Conflicts, phaseStart)
			res.Core = core
			res.TimedOut = true
			return nil
		}
		if st == sat.Unsat {
			step(probe, "unsat", delta.Conflicts, phaseStart)
			// The dropped group was redundant. The fresh core is a subset
			// of cand and may prune several groups at once.
			next := coreNames(solver.UnsatCore(), cnf)
			core = intersectOrdered(cand, next)
			if i > len(core) {
				i = len(core)
			}
			continue
		}
		step(probe, "sat", delta.Conflicts, phaseStart)
		i++
	}
	res.Core = core
	res.Minimal = true
	return nil
}

// coreNames decodes an assumption core into group names, preserving order
// and dropping any literal that is not a group selector (there are none
// in practice: every assumption passed is a selector).
func coreNames(core []sat.Lit, cnf *circuit.CNF) []string {
	out := make([]string, 0, len(core))
	for _, l := range core {
		if name, ok := cnf.GroupName(l); ok {
			out = append(out, name)
		}
	}
	return out
}

// intersectOrdered returns the members of a that also appear in b, in a's
// order.
func intersectOrdered(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	out := a[:0]
	for _, s := range a {
		if in[s] {
			out = append(out, s)
		}
	}
	return out
}

// BlamedStatements maps blamed output groups (GroupPktField /
// GroupStateVar names) onto the source statements that assign those
// outputs, rendered back to Domino source. Assignments nested in if/else
// arms count: the branch writes the output on some inputs. Non-output
// (domain) groups contribute nothing. The result preserves program order
// without duplicates.
func BlamedStatements(prog *ast.Program, groups []string) []string {
	want := map[string]bool{} // "pkt.x" / state name → blamed
	for _, g := range groups {
		kind, output, ok := circuit.ParseOutputGroup(g)
		if !ok {
			continue
		}
		lv := ast.LValue{Name: output, IsField: kind == "pkt"}
		want[lv.String()] = true
	}
	if len(want) == 0 {
		return nil
	}
	var out []string
	seen := map[string]bool{}
	var walk func(stmts []ast.Stmt)
	walk = func(stmts []ast.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *ast.Assign:
				if !want[s.LHS.String()] {
					continue
				}
				line := s.LHS.String() + " = " + s.RHS.String() + ";"
				if !seen[line] {
					seen[line] = true
					out = append(out, line)
				}
			case *ast.If:
				walk(s.Then)
				walk(s.Else)
			}
		}
	}
	walk(prog.Stmts)
	return out
}
