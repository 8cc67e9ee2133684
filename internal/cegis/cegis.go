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
// Following §3.1 ("Scaling Chipmunk to a large number of input bits"),
// the loop runs in two tiers. SKETCH's tier works at a small synthesis
// width: tests are encoded there and each candidate is verified there
// first. Z3's tier verifies at a wider width (default 10 bits), and only
// candidates that pass the narrow check reach it. A counterexample is
// encoded at the width of the query that found it; hole words are
// width-independent, so both tiers constrain the same synthesis solver.
// Only an UNSAT query at the verification width returns a configuration.
package cegis

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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
	// SynthWidth is the width of the narrow tier: the initial tests and
	// the first verification of every candidate (the paper notes SKETCH
	// defaults to 5-bit integers; 4 is our default, swept by the two-tier
	// ablation bench). 0 means DefaultSynthWidth. SynthWidth >=
	// VerifyWidth runs a single tier.
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
	// Member labels the hedge slot this synthesis run belongs to (e.g.
	// "d2.s1"; see core.Options.SeedFanout). It is attached to iteration
	// spans so concurrent attempts within one compile stay attributable.
	// Empty without hedging.
	Member string
	// Care weakens the correctness condition to the paper's §5.2
	// approximate synthesis: a Domino expression over the program's
	// packet fields and state variables, and only inputs where it is
	// nonzero must be mapped correctly. Synthesis drops tests outside
	// the care set and verification only searches inside it. nil means
	// exact synthesis.
	Care ast.Expr
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
	// PeakCNFVars is the largest encoding any single phase solver reached.
	PeakCNFVars int
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
func solveTraced(ctx context.Context, s *sat.Solver, phase string, assumptions ...sat.Lit) (st sat.Status, delta sat.Stats, timedOut bool) {
	solveCtx, span := obs.StartSpan(ctx, "sat.solve")
	if obs.TracerFrom(ctx) != nil {
		s.SetProgress(progressInterval, func(now sat.Stats) {
			obs.Note(solveCtx, "sat.progress", obs.String("phase", phase),
				obs.Int64("conflicts", now.Conflicts), obs.Int64("decisions", now.Decisions),
				obs.Int64("restarts", now.Restarts))
		})
		defer s.SetProgress(0, nil)
	}
	st, timedOut = solveWithContext(ctx, s, assumptions...)
	delta = s.StatsDelta()
	span.End(
		obs.String("status", st.String()),
		obs.Int64("conflicts", delta.Conflicts),
		obs.Int64("decisions", delta.Decisions),
		obs.Int64("propagations", delta.Propagations),
		obs.Int64("restarts", delta.Restarts),
		obs.Int64("learnt", delta.Learnt),
		obs.Int64("solve_ns", delta.SolveNS),
		obs.Int("cnf_vars", delta.MaxVar),
		obs.Int("clauses", delta.Clauses),
	)
	return st, delta, timedOut
}

// cexBits returns the widest significant bit count across a
// counterexample's field and state values — the verify span's "cex_bits",
// set for the verification-width tier only (wide counterexamples mean
// verification is exercising the upper bits the narrow tier never saw).
func cexBits(cex interp.Snapshot) int {
	w := 0
	for _, v := range cex.Pkt {
		w = max(w, bits.Len64(v))
	}
	for _, v := range cex.State {
		w = max(w, bits.Len64(v))
	}
	return w
}

// holeAttrs are the cegis.sketch span's end attributes: the hole count,
// the total hole bits (Equation 1's m) and one "hole_bits.<class>"
// subtotal per holeClass.
func holeAttrs(sk backend.Sketch) []obs.Attr {
	holes, total := sk.HoleCount()
	attrs := []obs.Attr{obs.Int("holes", holes), obs.Int("hole_bits", total)}
	names, widths := sk.HoleInventory()
	byClass := map[string]int{}
	for i, name := range names {
		byClass[holeClass(name)] += widths[i]
	}
	for class, b := range byClass {
		attrs = append(attrs, obs.Int("hole_bits."+class, b))
	}
	return attrs
}

// holeClass is a hole's name without its coordinates: each "_"-separated
// component loses its trailing digits, and components left empty are
// dropped ("stateless_0_1_opcode" is "stateless_opcode", "slot_2_op" is
// "slot_op", "imm3" is "imm").
func holeClass(name string) string {
	parts := strings.Split(name, "_")
	kept := parts[:0]
	for _, p := range parts {
		if p = strings.TrimRight(p, "0123456789"); p != "" {
			kept = append(kept, p)
		}
	}
	return strings.Join(kept, "_")
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
	res := &Result{Target: be.Target()}
	defer func() { res.Elapsed = time.Since(start) }()
	l, err := newLoop(ctx, prog, be, size, opts, res, false)
	if err != nil {
		return nil, err
	}
	if l == nil {
		return res, nil
	}
	defer l.release()
	v, cfg, err := l.run(ctx, opts.maxIters())
	switch {
	case err != nil:
		return nil, err
	case v == diverged:
		return res, fmt.Errorf("cegis: no convergence after %d iterations (%d tests)", res.Iters, res.Tests)
	case v == timedOut:
		res.TimedOut = true
	case v == feasible:
		res.Feasible = true
		res.TargetConfig = cfg
		res.Config, _ = cfg.(*pisa.Config)
	}
	return res, nil
}

// verdict is how one CEGIS iteration, or the whole loop, ended.
type verdict int

const (
	refined    verdict = iota // a counterexample joins the test set
	feasible                  // verification at the verification width is UNSAT
	infeasible                // synthesis is UNSAT on the test set
	timedOut                  // the context expired
	failed                    // a test could not be encoded
	diverged                  // MaxIters ran out
)

var iterOutcomes = [...]string{"counterexample", "feasible", "infeasible", "timeout", "error"}

// test is one concrete input and the width it is encoded at.
type test struct {
	x interp.Snapshot
	w word.Width
}

// loop is the state of one CEGIS run: the sketch, the two leased
// workspaces and the tests waiting to be encoded. SynthesizeOn and the
// forensics rerun (explainOn) drive the same loop. A gated loop tags each
// test's output constraints with that output's group, solves under every
// group's assumption and logs a timeline; nothing else differs.
type loop struct {
	prog           *ast.Program
	fields, states []string
	sk             backend.Sketch
	// syn holds the sketch's circuit and the incremental synthesis
	// solver; ver is reset before every verification query. Both are
	// leased in newLoop and go back to the pool on release.
	syn, ver *workspace
	// tiers are the verification widths in query order: the synthesis
	// width, then the verification width, or the latter alone when the
	// two coincide.
	tiers    []word.Width
	pending  []test
	care     ast.Expr
	member   string
	res      *Result
	gated    bool
	timeline []ExplainStep
}

// newLoop builds the sketch and the synthesis solver for prog on be at
// size and queues the initial tests. It returns a nil loop when the
// backend's capacity pre-check rejects the program.
func newLoop(ctx context.Context, prog *ast.Program, be backend.Backend, size int, opts Options, res *Result, gated bool) (*loop, error) {
	vars := prog.Variables()
	if err := checkCare(opts.Care, vars); err != nil {
		return nil, err
	}
	l := &loop{prog: prog, fields: vars.Fields, states: vars.States, care: opts.Care, member: opts.Member, res: res, gated: gated}

	// Capacity pre-check: a definitive "does not fit" from the backend
	// (more fields than containers/registers) is a clean infeasible
	// result, not an error — a legitimate "rejected" outcome. An invalid
	// machine description or width is an error.
	fits, err := be.Check(size, len(l.fields), len(l.states))
	if err != nil {
		return nil, err
	}
	if err := opts.synthWidth().Validate(); err != nil {
		return nil, err
	}
	if !fits {
		return nil, nil
	}

	l.syn, l.ver = leaseWorkspace(), leaseWorkspace()
	_, span := obs.StartSpan(ctx, "cegis.sketch")
	if l.sk, err = be.NewSketch(l.syn.b, size, len(l.fields), len(l.states)); err != nil {
		span.End(obs.String("outcome", "error"))
		l.release()
		return nil, err
	}
	_, res.HoleBits = l.sk.HoleCount()

	// Attach the cancellation hook before any clause is loaded: AddClause
	// runs top-level unit propagation, so loading must respect the context
	// just like in-search propagation does.
	if fn := contextStop(ctx); fn != nil {
		l.syn.s.SetStop(fn)
	}
	if gated {
		l.syn.cnf.EnableGroups()
	}
	l.sk.AssertDomains(l.syn.cnf)
	if span != nil { // an unobserved compile skips the hole classes' allocations
		span.End(holeAttrs(l.sk)...)
	}

	// Figure 3: initialize X to random inputs (plus all-zeros, which pins
	// down constant-output components cheaply). The synthesis width is
	// clamped to the sketch's minimum sound width: control holes must not
	// truncate (see sketch.MinWidth).
	sw := max(opts.synthWidth(), l.sk.MinWidth())
	vw := max(opts.verifyWidth(), sw)
	l.tiers = []word.Width{sw, vw}
	if sw == vw {
		l.tiers = l.tiers[1:]
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	l.pending = append(l.pending, test{interp.NewSnapshot(), sw})
	for i := 0; i < opts.initialTests(); i++ {
		l.pending = append(l.pending, test{randomSnapshot(rng, sw, l.fields, l.states), sw})
	}
	return l, nil
}

// release returns the loop's workspaces to the pool. The loop must not be
// used afterwards.
func (l *loop) release() {
	l.syn.release()
	l.ver.release()
}

// run iterates until a verdict other than refined, or until maxIters
// iterations have run (diverged).
func (l *loop) run(ctx context.Context, maxIters int) (verdict, backend.Config, error) {
	for iter := 1; iter <= maxIters; iter++ {
		l.res.Iters = iter
		iterAttrs := []obs.Attr{obs.Int("iter", iter)}
		if l.member != "" {
			iterAttrs = append(iterAttrs, obs.String("member", l.member))
		}
		iterCtx, iterSpan := obs.StartSpan(ctx, "cegis.iter", iterAttrs...)
		v, cfg, err := l.iterate(iterCtx, iter)
		iterSpan.End(obs.String("outcome", iterOutcomes[v]))
		if v != refined {
			return v, cfg, err
		}
	}
	return diverged, nil, nil
}

// iterate is one CEGIS iteration: synthesize a candidate on the test set,
// then verify it tier by tier. The first tier that finds a counterexample
// queues it, at that tier's width, for the next synthesis; only a
// candidate every tier proves — the last at the verification width — is
// returned.
func (l *loop) iterate(ctx context.Context, iter int) (verdict, backend.Config, error) {
	// --- Synthesis phase (Equation 2) ---
	st, timeout, err := l.synthesize(ctx, iter)
	switch {
	case err != nil:
		return failed, nil, err
	case timeout:
		return timedOut, nil, nil
	case st == sat.Unsat:
		// No hole assignment matches the spec even on the current
		// finite test set: the sketch is infeasible (Figure 1 right).
		return infeasible, nil, nil
	}
	vw := l.tiers[len(l.tiers)-1]
	_, span := obs.StartSpan(ctx, "cegis.extract")
	cfg := l.sk.Extract(l.syn.cnf, l.fields, l.states, vw)
	span.End()

	// --- Verification phase (Equation 3), narrow tier first ---
	for _, w := range l.tiers {
		vo := l.verify(ctx, iter, cfg, w)
		switch {
		case vo.timedOut:
			return timedOut, nil, nil
		case !vo.verified:
			// The paper's outer loop: "rerun SKETCH using the
			// counterexample as an additional concrete input".
			l.pending = append(l.pending, test{vo.cex, w})
			return refined, nil, nil
		}
	}
	return feasible, cfg, nil
}

// synthesize is the synthesis phase: encode the queued tests, then solve
// for hole values.
func (l *loop) synthesize(ctx context.Context, iter int) (sat.Status, bool, error) {
	start, before := time.Now(), l.res.Tests
	ctx, span := obs.StartSpan(ctx, "synth", obs.Int("tests", l.res.Tests+len(l.pending)))
	for _, t := range l.pending {
		if err := l.encode(t); err != nil {
			span.End(obs.String("outcome", "error"), obs.Int("encoded", l.res.Tests-before))
			return sat.Unknown, false, err
		}
	}
	l.pending = l.pending[:0]
	var assume []sat.Lit
	if l.gated {
		// Groups only ever grow (per-output groups are reused across
		// tests), so the assumption set is recomputed per iteration.
		assume = l.syn.cnf.GroupAssumptions(l.syn.cnf.Groups())
	}
	st, d, timeout := solveTraced(ctx, l.syn.s, "synth", assume...)
	l.res.SynthConflicts += d.Conflicts
	l.account(d)
	l.endPhase(span, iter, "synth", phaseOutcome(st == sat.Unsat, timeout), d.Conflicts, start,
		obs.Int("encoded", l.res.Tests-before), obs.Int("gates", l.syn.b.NumGates()))
	return st, timeout, nil
}

// verify is one verification query, at width w, in its own phase span. A
// counterexample at the verification width puts its cexBits on the span.
func (l *loop) verify(ctx context.Context, iter int, cfg backend.Config, w word.Width) verifyOutcome {
	start := time.Now()
	ctx, span := obs.StartSpan(ctx, "verify")
	vo := l.ver.verify(ctx, l.prog, l.care, cfg, l.fields, l.states, w)
	l.res.VerifyConflicts += vo.stats.Conflicts
	l.account(vo.stats)
	attrs := []obs.Attr{obs.Int("width", int(w)), obs.Int("gates", l.ver.b.NumGates())}
	if !vo.verified && !vo.timedOut && w == l.tiers[len(l.tiers)-1] {
		attrs = append(attrs, obs.Int("cex_bits", cexBits(vo.cex)))
	}
	l.endPhase(span, iter, "verify", phaseOutcome(vo.verified, vo.timedOut), vo.stats.Conflicts, start, attrs...)
	return vo
}

// encode asserts one concrete test: instantiate the datapath at the
// test's width with constant inputs and assert equality with the
// specification's concrete outputs. A test outside the care set is
// dropped: correctness is not required there. A gated loop puts each
// output's assertion in that output's group, so an UNSAT core can blame
// individual packet-field and state-variable computations — which map
// back to the statements assigning them.
//
// Every canonical variable is materialized in the snapshot first, at
// width w. State entries absent from the input would otherwise diverge:
// the datapath side reads a missing map key as 0, while the interpreter
// seeds the variable from the program's Init declaration — yielding a
// constraint pipeline(0) == spec(Init) that contradicts later
// counterexamples and drives synthesis to a bogus UNSAT for any program
// with a nonzero initializer. Feasibility is a property of the transfer function over
// free state inputs (exactly how verify encodes it); Init only sets a
// register's deployed initial contents.
func (l *loop) encode(t test) error {
	x, w, b, cnf := t.x.Clone(), t.w, l.syn.b, l.syn.cnf
	for _, f := range l.fields {
		x.Pkt[f] = w.Trunc(x.Pkt[f])
	}
	for _, s := range l.states {
		x.State[s] = w.Trunc(x.State[s])
	}
	if l.care != nil {
		c, err := arith.EvalExpr[uint64](arith.Conc{W: w}, l.care, arith.Env[uint64]{Pkt: x.Pkt, State: x.State})
		if err != nil {
			return err
		}
		if c == 0 {
			return nil // a don't-care input
		}
	}
	specOut, err := interp.MustNew(w).Run(l.prog, x)
	if err != nil {
		return err
	}
	fw := make([]circuit.Word, len(l.fields))
	for i, f := range l.fields {
		fw[i] = b.ConstWord(x.Pkt[f], w)
	}
	sw := make([]circuit.Word, len(l.states))
	for i, s := range l.states {
		sw[i] = b.ConstWord(x.State[s], w)
	}
	outF, outS := l.sk.Instantiate(w, fw, sw)
	for i, f := range l.fields {
		if l.gated {
			cnf.SetGroup(circuit.GroupPktField(f))
		}
		cnf.Assert(b.EqW(outF[i], b.ConstWord(specOut.Pkt[f], w)))
	}
	for i, s := range l.states {
		if l.gated {
			cnf.SetGroup(circuit.GroupStateVar(s))
		}
		cnf.Assert(b.EqW(outS[i], b.ConstWord(specOut.State[s], w)))
	}
	cnf.SetGroup("")
	l.res.Tests++
	return nil
}

// account folds one solve's effort into the Result.
func (l *loop) account(d sat.Stats) {
	l.res.Decisions += d.Decisions
	l.res.Propagations += d.Propagations
	l.res.PeakCNFVars = max(l.res.PeakCNFVars, d.MaxVar)
}

// endPhase ends a phase span and, in a gated loop, logs the phase on the
// timeline.
func (l *loop) endPhase(span *obs.Span, iter int, phase, outcome string, conflicts int64, start time.Time, attrs ...obs.Attr) {
	span.End(append(attrs, obs.String("outcome", outcome), obs.Int64("conflicts", conflicts))...)
	if l.gated {
		l.timeline = append(l.timeline, ExplainStep{Iter: iter, Phase: phase, Outcome: outcome,
			Conflicts: conflicts, Elapsed: time.Since(start)})
	}
}

// phaseOutcome names a phase solve's result.
func phaseOutcome(unsat, timeout bool) string {
	switch {
	case timeout:
		return "timeout"
	case unsat:
		return "unsat"
	}
	return "sat"
}

// verifyOutcome carries one verification query's result and effort.
type verifyOutcome struct {
	cex      interp.Snapshot
	verified bool
	timedOut bool
	// stats is the verification solver's effort (the solver is reset per
	// query, so cumulative == delta).
	stats sat.Stats
}

// workspace is a circuit builder, a SAT solver and the encoder between
// them. Every CEGIS run leases two from one process-wide pool: one holds
// the sketch and the incremental synthesis solver, the other serves the
// verification queries, each of which starts from a reset. A workspace
// goes back to the pool reset, so the next lease starts in exactly the
// state New produces — same gate, variable and clause numbering, no hook
// or group left over — and changes no search decision; it only keeps the
// gate, clause, watch and hash arrays one run grew for the next.
//
// The pool is a sync.Pool, so retention is bounded by the garbage
// collector: a workspace idle for two collections is dropped.
type workspace struct {
	b   *circuit.Builder
	s   *sat.Solver
	cnf *circuit.CNF
}

var workspaces = sync.Pool{New: func() any {
	b, s := circuit.New(), sat.New()
	return &workspace{b: b, s: s, cnf: circuit.NewCNF(b, s)}
}}

// leaseWorkspace takes a reset workspace from the pool.
func leaseWorkspace() *workspace { return workspaces.Get().(*workspace) }

// reset restores the state New produces, keeping capacity. It drops the
// solver's stop and progress hooks and the encoder's groups.
func (ws *workspace) reset() {
	ws.b.Reset()
	ws.s.Reset()
	ws.cnf.Reset()
}

// release resets the workspace and returns it to the pool; a nil
// workspace is ignored. The workspace must not be used afterwards.
func (ws *workspace) release() {
	if ws == nil {
		return
	}
	ws.reset()
	workspaces.Put(ws)
}

// verify searches for an input on which the configured machine and the
// specification disagree at width w and, when care is non-nil, care is
// nonzero. It returns the counterexample if one exists. The query starts
// from a reset, so queries are independent of each other.
func (ws *workspace) verify(ctx context.Context, prog *ast.Program, care ast.Expr, cfg backend.Config, fields, states []string, w word.Width) verifyOutcome {
	ws.reset()
	b, solver, cnf := ws.b, ws.s, ws.cnf
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
	if care != nil {
		// Don't-care inputs cannot refute. Like the spec, the predicate
		// was already evaluated concretely during synthesis.
		careW, err := arith.EvalExpr[circuit.Word](cc, care, env)
		if err != nil {
			panic(fmt.Sprintf("cegis: care encoding failed: %v", err))
		}
		cnf.Assert(b.NonZero(careW))
	}
	st, delta, timedOut := solveTraced(ctx, solver, "verify")
	out := verifyOutcome{stats: delta}
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

// solveWithContext runs the solver under the assumptions and the
// context's cancellation. The primary mechanism is the solver's in-search
// stop hook (sat.SetStop), which polls the context every few hundred
// conflicts so cancelled hedge slots abort mid-solve; the
// budgeted-chunk loop remains as a fallback for solvers whose hook a
// caller has displaced.
func solveWithContext(ctx context.Context, s *sat.Solver, assumptions ...sat.Lit) (sat.Status, bool) {
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
		st, err := s.SolveWithBudget(budgetChunk, assumptions...)
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

// checkCare rejects a care predicate that reads a packet field or state
// variable the program never mentions: such a read is always 0, so a
// misspelled name would silently turn the predicate into a constant.
func checkCare(care ast.Expr, vars ast.Vars) error {
	var err error
	ast.WalkExprs([]ast.Stmt{&ast.If{Cond: care}}, func(e ast.Expr) {
		switch e := e.(type) {
		case *ast.Field:
			if !slices.Contains(vars.Fields, e.Name) && err == nil {
				err = fmt.Errorf("cegis: care predicate reads %s, which the program never mentions", e)
			}
		case *ast.State:
			if !slices.Contains(vars.States, e.Name) && err == nil {
				err = fmt.Errorf("cegis: care predicate reads state %s, which the program never mentions", e)
			}
		}
	})
	return err
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
