// Package cegis implements counterexample-guided inductive synthesis — the
// algorithm of the paper's Figure 3 — over the sketch and SAT substrates.
//
// The synthesis problem (Equation 1) asks for hole values c such that the
// pipeline P equals the specification S on all inputs x:
//
//	∃c ∀x : S(x) = P(x, c)
//
// CEGIS splits this quantifier alternation into an alternation of two SAT
// queries:
//
//   - Synthesis (Equation 2): on a finite test set {x1..xk}, find c with
//     S(xi) = P(xi, c) for all i. Each test input becomes one datapath
//     instantiation with constant inputs inside a single incremental
//     solver, so learned clauses persist across iterations.
//   - Verification (Equation 3): with c fixed, search for an x with
//     S(x) ≠ P(x, c). A model is a counterexample, fed back to synthesis;
//     UNSAT means the configuration is correct for every input at the
//     verification width.
//
// Following §3.1 ("Scaling Chipmunk to a large number of input bits"), the
// two phases run at different bit widths: synthesis instantiates test
// inputs at a small width (SKETCH's role), verification at a wider one
// (Z3's role, default 10 bits). Hole words are width-independent, so
// wide-width counterexamples constrain the same synthesis solver.
package cegis

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"sort"
	"time"

	"repro/internal/arith"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/obs"
	"repro/internal/pisa"
	"repro/internal/sat"
	"repro/internal/sketch"
	"repro/internal/word"
)

// Default tier widths used when Options leaves SynthWidth / VerifyWidth
// zero. Exported because the solution cache (internal/solcache) folds these
// into its content address so that explicit defaults and zero values collide
// on the same key: changing either value changes the meaning of persisted
// cache entries and therefore requires a solcache.FormatVersion bump.
const (
	DefaultSynthWidth  word.Width = 4
	DefaultVerifyWidth word.Width = 10
)

// Options tunes the CEGIS loop.
type Options struct {
	// SynthWidth is the datapath width for synthesis-phase test inputs
	// (the paper notes SKETCH defaults to 5-bit integers; 4 is our
	// default, swept by the two-tier ablation bench). 0 means
	// DefaultSynthWidth.
	SynthWidth word.Width
	// VerifyWidth is the verification width (the paper's Z3 stage runs at
	// 10-bit integers). 0 means DefaultVerifyWidth.
	VerifyWidth word.Width
	// IndicatorAlloc selects the indicator-variable field allocation
	// (Figure 4 ablation) instead of canonical allocation.
	IndicatorAlloc bool
	// InitialTests is the number of random test inputs seeded before the
	// first synthesis call (Figure 3's "initialize X to random inputs").
	// 0 means 2.
	InitialTests int
	// MaxIters bounds CEGIS iterations. 0 means 64. Exhausting the bound
	// is an error: it signals divergence.
	MaxIters int
	// Seed drives the initial random test inputs.
	Seed int64
	// Member labels the portfolio attempt this synthesis run belongs to
	// (internal/portfolio). It is attached to iteration spans so
	// concurrent attempts within one compile stay attributable,
	// and echoed on the Result so the winner can be reported. Empty
	// outside portfolio mode.
	Member string
}

func (o *Options) synthWidth() word.Width {
	if o.SynthWidth == 0 {
		return DefaultSynthWidth
	}
	return o.SynthWidth
}

func (o *Options) verifyWidth() word.Width {
	if o.VerifyWidth == 0 {
		return DefaultVerifyWidth
	}
	return o.VerifyWidth
}

func (o *Options) initialTests() int {
	if o.InitialTests == 0 {
		return 2
	}
	return o.InitialTests
}

func (o *Options) maxIters() int {
	if o.MaxIters == 0 {
		return 64
	}
	return o.MaxIters
}

// Result is the outcome of a synthesis run.
type Result struct {
	// Member echoes Options.Member so a portfolio scheduler racing many
	// Synthesize calls can attribute each result (in particular the
	// winner's) without extra bookkeeping.
	Member string
	// Target names the backend this run synthesized for ("pisa", "bpf").
	Target string
	// Feasible reports whether a configuration implementing the program
	// on this target exists (false also when the run timed out — check
	// TimedOut to distinguish).
	Feasible bool
	// TimedOut is true when the context expired before an answer.
	TimedOut bool
	// TargetConfig is the synthesized configuration when Feasible.
	TargetConfig backend.Config
	// Config is TargetConfig's concrete type for the PISA target, kept so
	// existing callers (and persisted cache entries) keep their static
	// typing; nil for other targets.
	Config *pisa.Config
	// Iters is the number of CEGIS iterations executed.
	Iters int
	// Tests is the final size of the concrete test set.
	Tests int
	// HoleBits is the total search-space size in bits (m of Equation 1).
	HoleBits int
	// SynthConflicts and VerifyConflicts aggregate SAT effort per phase.
	SynthConflicts  int64
	VerifyConflicts int64
	// Decisions and Propagations aggregate SAT effort across both phases.
	Decisions    int64
	Propagations int64
	// PeakCNFVars and PeakCNFClauses are the largest encoding any single
	// phase solver reached; Gates is the largest circuit DAG built.
	PeakCNFVars    int
	PeakCNFClauses int
	Gates          int
	// Elapsed is total wall-clock time.
	Elapsed time.Duration
}

// budgetChunk is how many SAT conflicts run between context checks.
const budgetChunk = 2000

// progressInterval is how many SAT conflicts run between sat.progress
// notes. A variable so tests can lower it.
var progressInterval int64 = 5000

// solveTraced runs one budgeted solve inside a "sat.solve" span and
// returns the per-solve effort delta. When ctx carries a tracer, every
// progressInterval conflicts the solve also emits a "sat.progress" note
// under its span, so multi-minute solves (Table 2's worst cases) stay
// observable; without one, no progress hook is installed.
func solveTraced(ctx context.Context, s *sat.Solver, phase string) (st sat.Status, delta sat.Stats, timedOut bool) {
	solveCtx, span := obs.StartSpan(ctx, "sat.solve")
	if span != nil {
		s.SetProgress(progressInterval, func(now sat.Stats) {
			obs.Note(solveCtx, "sat.progress", obs.String("phase", phase),
				obs.Int64("conflicts", now.Conflicts), obs.Int64("decisions", now.Decisions),
				obs.Int64("restarts", now.Restarts))
		})
		defer s.SetProgress(0, nil)
	}
	st, timedOut = solveWithContext(ctx, s)
	delta = s.StatsDelta()
	span.End(
		obs.String("status", st.String()),
		obs.Int64("conflicts", delta.Conflicts),
		obs.Int64("decisions", delta.Decisions),
		obs.Int64("propagations", delta.Propagations),
		obs.Int64("restarts", delta.Restarts),
		obs.Int64("solve_ns", delta.SolveNS),
		obs.Int("cnf_vars", delta.MaxVar),
	)
	return st, delta, timedOut
}

// publishSolve accumulates one solve's effort delta into the metrics
// registry (a nil registry no-ops).
func publishSolve(reg *obs.Registry, d sat.Stats) {
	reg.Counter("sat.solves").Add(1)
	reg.Counter("sat.conflicts").Add(d.Conflicts)
	reg.Counter("sat.decisions").Add(d.Decisions)
	reg.Counter("sat.propagations").Add(d.Propagations)
	reg.Counter("sat.restarts").Add(d.Restarts)
	reg.Counter("sat.learnt").Add(d.Learnt)
	reg.Counter("sat.solve_ns").Add(d.SolveNS)
	reg.Gauge("cnf.vars").SetMax(int64(d.MaxVar))
	reg.Gauge("cnf.clauses").SetMax(int64(d.Clauses))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// cexBits returns the widest significant bit count across a
// counterexample's field and state values — the "counterexample width"
// histogram metric (wide counterexamples mean verification is exercising
// the upper bits the narrow synthesis tier never saw).
func cexBits(cex interp.Snapshot) int {
	w := 0
	for _, v := range cex.Pkt {
		w = maxInt(w, bits.Len64(v))
	}
	for _, v := range cex.State {
		w = maxInt(w, bits.Len64(v))
	}
	return w
}

// Synthesize runs CEGIS to fit prog onto the PISA grid. The grid's
// WordWidth is ignored (widths come from Options); the returned
// configuration records the verification width as its run width, since
// that is the widest width at which it is proven correct.
func Synthesize(ctx context.Context, prog *ast.Program, grid pisa.GridSpec, opts Options) (*Result, error) {
	be := sketch.PISABackend{Grid: grid, Opts: sketch.Options{IndicatorAlloc: opts.IndicatorAlloc}}
	return SynthesizeOn(ctx, prog, be, grid.Stages, opts)
}

// SynthesizeOn runs CEGIS to fit prog onto any backend at the given
// program size (pipeline stages for PISA, instruction slots for BPF).
// This is the algorithm of the paper's Figure 3, target-independent: the
// backend supplies the sketch (Equation 2's P) and the synthesized
// config supplies its own symbolic re-encoding for verification
// (Equation 3); everything else — the two-tier widths, the incremental
// synthesis solver, the counterexample feedback — is shared.
func SynthesizeOn(ctx context.Context, prog *ast.Program, be backend.Backend, size int, opts Options) (*Result, error) {
	start := time.Now()
	res := &Result{Member: opts.Member, Target: be.Target()}

	vars := prog.Variables()
	fields, states := vars.Fields, vars.States

	// Capacity pre-check: a definitive "does not fit" from the backend
	// (more fields than containers/registers) is a clean infeasible
	// result, not an error — a legitimate "rejected" outcome. An invalid
	// machine description or width is an error.
	fits, err := be.Check(size, len(fields), len(states))
	if err != nil {
		return nil, err
	}
	if err := opts.synthWidth().Validate(); err != nil {
		return nil, err
	}
	if !fits {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	b := circuit.New()
	sk, err := be.NewSketch(b, size, len(fields), len(states))
	if err != nil {
		return nil, err
	}
	_, res.HoleBits = sk.HoleCount()
	reg := obs.MetricsFrom(ctx)
	sk.PublishMetrics(reg)

	synthSolver := sat.New()
	// Attach the cancellation hook before any clause is loaded: AddClause
	// runs top-level unit propagation, so loading must respect the context
	// just like in-search propagation does.
	if fn := contextStop(ctx); fn != nil {
		synthSolver.SetStop(fn)
	}
	synthCNF := circuit.NewCNF(b, synthSolver)
	sk.AssertDomains(synthCNF)

	// addTest encodes one concrete test input: instantiate the datapath at
	// the input's width with constant inputs and assert equality with the
	// specification's concrete outputs.
	//
	// Every canonical variable is materialized in the snapshot first. State
	// entries absent from the input would otherwise diverge: the datapath
	// side reads a missing map key as 0, while the interpreter seeds the
	// variable from the program's Init declaration — yielding a constraint
	// pipeline(0) == spec(Init) that contradicts later counterexamples and
	// drives synthesis to a bogus UNSAT for any program with a nonzero
	// initializer. Feasibility is a property of the transfer function over
	// free state inputs (exactly how verify encodes it); Init only sets a
	// register's deployed initial contents.
	addTest := func(x interp.Snapshot, w word.Width) error {
		x = x.Clone()
		for _, f := range fields {
			if _, ok := x.Pkt[f]; !ok {
				x.Pkt[f] = 0
			}
		}
		for _, s := range states {
			if _, ok := x.State[s]; !ok {
				x.State[s] = 0
			}
		}
		in := interp.MustNew(w)
		specOut, err := in.Run(prog, x)
		if err != nil {
			return err
		}
		fw := make([]circuit.Word, len(fields))
		for i, f := range fields {
			fw[i] = b.ConstWord(w.Trunc(x.Pkt[f]), w)
		}
		sw := make([]circuit.Word, len(states))
		for i, s := range states {
			sw[i] = b.ConstWord(w.Trunc(x.State[s]), w)
		}
		outF, outS := sk.Instantiate(w, fw, sw)
		for i, f := range fields {
			synthCNF.Assert(b.EqW(outF[i], b.ConstWord(specOut.Pkt[f], w)))
		}
		for i, s := range states {
			synthCNF.Assert(b.EqW(outS[i], b.ConstWord(specOut.State[s], w)))
		}
		res.Tests++
		reg.Counter("cegis.tests").Add(1)
		return nil
	}

	// Figure 3: initialize X to random inputs (plus all-zeros, which pins
	// down constant-output components cheaply). The synthesis width is
	// clamped to the sketch's minimum sound width: control holes must not
	// truncate (see sketch.MinWidth).
	rng := rand.New(rand.NewSource(opts.Seed))
	sw, vw := opts.synthWidth(), opts.verifyWidth()
	if mw := sk.MinWidth(); sw < mw {
		sw = mw
	}
	if vw < sw {
		vw = sw
	}
	if err := addTest(interp.NewSnapshot(), sw); err != nil {
		return nil, err
	}
	for i := 0; i < opts.initialTests(); i++ {
		if err := addTest(randomSnapshot(rng, sw, fields, states), sw); err != nil {
			return nil, err
		}
	}

	ws := newVerifier()

	for iter := 1; iter <= opts.maxIters(); iter++ {
		res.Iters = iter
		reg.Counter("cegis.iterations").Add(1)
		iterAttrs := []obs.Attr{obs.Int("iter", iter)}
		if opts.Member != "" {
			iterAttrs = append(iterAttrs, obs.String("member", opts.Member))
		}
		iterCtx, iterSpan := obs.StartSpan(ctx, "cegis.iter", iterAttrs...)

		// --- Synthesis phase (Equation 2) ---
		synthCtx, synthSpan := obs.StartSpan(iterCtx, "synth", obs.Int("tests", res.Tests))
		st, sd, timedOut := solveTraced(synthCtx, synthSolver, "synth")
		publishSolve(reg, sd)
		reg.Gauge("circuit.gates").SetMax(int64(b.NumGates()))
		res.SynthConflicts = synthSolver.Stats().Conflicts
		res.Decisions += sd.Decisions
		res.Propagations += sd.Propagations
		res.PeakCNFVars = maxInt(res.PeakCNFVars, sd.MaxVar)
		res.PeakCNFClauses = maxInt(res.PeakCNFClauses, synthCNF.NumClauses())
		res.Gates = maxInt(res.Gates, b.NumGates())

		outcome := "sat"
		if timedOut {
			outcome = "timeout"
		} else if st == sat.Unsat {
			outcome = "unsat"
		}
		synthSpan.End(obs.String("outcome", outcome), obs.Int64("conflicts", sd.Conflicts))
		if timedOut {
			iterSpan.End(obs.String("outcome", "timeout"))
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if st == sat.Unsat {
			// No hole assignment matches the spec even on the current
			// finite test set: the sketch is infeasible (Figure 1 right).
			iterSpan.End(obs.String("outcome", "infeasible"))
			res.Elapsed = time.Since(start)
			return res, nil
		}
		cfg := sk.Extract(synthCNF, fields, states, vw)

		// --- Verification phase (Equation 3) ---
		verifyCtx, verifySpan := obs.StartSpan(iterCtx, "verify")
		vo := ws.verify(verifyCtx, prog, cfg, fields, states, vw)
		publishSolve(reg, vo.stats)
		reg.Gauge("circuit.gates").SetMax(int64(vo.gates))
		res.VerifyConflicts += vo.stats.Conflicts
		res.Decisions += vo.stats.Decisions
		res.Propagations += vo.stats.Propagations
		res.PeakCNFVars = maxInt(res.PeakCNFVars, vo.stats.MaxVar)
		res.PeakCNFClauses = maxInt(res.PeakCNFClauses, vo.clauses)
		res.Gates = maxInt(res.Gates, vo.gates)

		outcome = "sat"
		if vo.timedOut {
			outcome = "timeout"
		} else if vo.verified {
			outcome = "unsat"
		}
		verifySpan.End(obs.String("outcome", outcome), obs.Int64("conflicts", vo.stats.Conflicts))
		if vo.timedOut {
			iterSpan.End(obs.String("outcome", "timeout"))
			res.TimedOut = true
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if vo.verified {
			iterSpan.End(obs.String("outcome", "feasible"))
			res.Feasible = true
			res.TargetConfig = cfg
			if pc, ok := cfg.(*pisa.Config); ok {
				res.Config = pc
			}
			res.Elapsed = time.Since(start)
			return res, nil
		}
		reg.Histogram("cegis.cex_bits").Observe(int64(cexBits(vo.cex)))
		iterSpan.End(obs.String("outcome", "counterexample"))
		// Feed the counterexample back at the verification width (the
		// paper's outer loop: "rerun SKETCH using the counterexample as an
		// additional concrete input").
		if err := addTest(vo.cex, vw); err != nil {
			return nil, err
		}
	}
	res.Elapsed = time.Since(start)
	return res, fmt.Errorf("cegis: no convergence after %d iterations (%d tests)", res.Iters, res.Tests)
}

// verifyOutcome carries one verification query's result and effort.
type verifyOutcome struct {
	cex      interp.Snapshot
	verified bool
	timedOut bool
	// stats is the verification solver's effort (the solver is reset per
	// query, so cumulative == delta); gates and clauses size the encoding.
	stats   sat.Stats
	gates   int
	clauses int
}

// verifier is the verification workspace of one CEGIS run: a circuit
// builder, a SAT solver and their encoder, reset before every query. Each
// query is independent — the state a Reset restores is exactly a fresh
// New — so reuse changes no search decision; it only stops every
// iteration from re-growing the gate, clause and watch arrays from zero.
type verifier struct {
	b   *circuit.Builder
	s   *sat.Solver
	cnf *circuit.CNF
}

func newVerifier() *verifier {
	b, s := circuit.New(), sat.New()
	return &verifier{b: b, s: s, cnf: circuit.NewCNF(b, s)}
}

// verify searches for an input on which the configured machine and the
// specification disagree at width w. It returns the counterexample if one
// exists.
func (v *verifier) verify(ctx context.Context, prog *ast.Program, cfg backend.Config, fields, states []string, w word.Width) verifyOutcome {
	v.b.Reset()
	v.s.Reset()
	v.cnf.Reset()
	b, solver, cnf := v.b, v.s, v.cnf
	cc := arith.Circ{B: b, W: w}

	fw := make([]circuit.Word, len(fields))
	env := arith.NewEnv[circuit.Word]()
	for i, f := range fields {
		fw[i] = b.InputWord("pkt."+f, w)
		env.Pkt[f] = fw[i]
	}
	sw := make([]circuit.Word, len(states))
	for i, s := range states {
		sw[i] = b.InputWord(s, w)
		env.State[s] = sw[i]
	}

	// Pipeline side: the configured machine with holes lifted to
	// constants, re-encoded by the config itself (for PISA this is the
	// exact Datapath construction this function historically inlined).
	pipeF, pipeS := cfg.Symbolic(b, w, fw, sw)

	// Specification side: the program as a circuit.
	specEnv, err := arith.EvalProgram[circuit.Word](cc, prog, env)
	if err != nil {
		// The program was already interpreted successfully during
		// synthesis; an encoding failure here is a programming error.
		panic(fmt.Sprintf("cegis: spec encoding failed: %v", err))
	}

	equal := circuit.True
	for i, f := range fields {
		specW := specEnv.Pkt[f]
		equal = b.And(equal, b.EqW(pipeF[i], specW))
	}
	for i, s := range states {
		specW := specEnv.State[s]
		equal = b.And(equal, b.EqW(pipeS[i], specW))
	}

	if fn := contextStop(ctx); fn != nil {
		solver.SetStop(fn)
	}
	cnf.AssertNot(equal)
	st, delta, timedOut := solveTraced(ctx, solver, "verify")
	out := verifyOutcome{stats: delta, gates: b.NumGates(), clauses: cnf.NumClauses()}
	if timedOut {
		out.timedOut = true
		return out
	}
	if st == sat.Unsat {
		out.verified = true
		return out
	}
	out.cex = interp.NewSnapshot()
	for i, f := range fields {
		out.cex.Pkt[f] = cnf.WordValue(fw[i])
	}
	for i, s := range states {
		out.cex.State[s] = cnf.WordValue(sw[i])
	}
	return out
}

// solveWithContext runs the solver under the context's cancellation. The
// primary mechanism is the solver's in-search stop hook (sat.SetStop),
// which polls the context every few hundred conflicts so cancelled
// portfolio members abort mid-solve; the budgeted-chunk loop remains as a
// fallback for solvers whose hook a caller has displaced.
func solveWithContext(ctx context.Context, s *sat.Solver) (sat.Status, bool) {
	if fn := contextStop(ctx); fn != nil {
		// Deliberately left installed after the solve returns: the hook
		// also guards top-level propagation when later clauses are loaded
		// into this solver (incremental CEGIS test constraints).
		s.SetStop(fn)
	}
	for {
		select {
		case <-ctx.Done():
			return sat.Unknown, true
		default:
		}
		st, err := s.SolveWithBudget(budgetChunk)
		switch {
		case err == nil:
			return st, false
		case errors.Is(err, sat.ErrStopped):
			return sat.Unknown, true
		}
		// sat.ErrBudget: chunk exhausted; re-check the context and keep
		// solving.
	}
}

// contextStop adapts a context to a solver stop hook, or nil for contexts
// that can never be cancelled.
func contextStop(ctx context.Context) func() bool {
	done := ctx.Done()
	if done == nil {
		return nil
	}
	return func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
}

// randomSnapshot draws a uniformly random input at width w.
func randomSnapshot(rng *rand.Rand, w word.Width, fields, states []string) interp.Snapshot {
	x := interp.NewSnapshot()
	for _, f := range fields {
		x.Pkt[f] = w.Trunc(rng.Uint64())
	}
	for _, s := range states {
		x.State[s] = w.Trunc(rng.Uint64())
	}
	return x
}

// CanonicalVars returns the canonical (sorted) field and state orders used
// for allocation — the paper's §3.1 canonicalization (Figure 4). Exposed so
// CLIs and reports can display the allocation.
func CanonicalVars(prog *ast.Program) (fields, states []string) {
	v := prog.Variables()
	fields = append([]string{}, v.Fields...)
	states = append([]string{}, v.States...)
	sort.Strings(fields)
	sort.Strings(states)
	return fields, states
}
