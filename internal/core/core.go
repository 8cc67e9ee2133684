// Package core is the Chipmunk code generator — the paper's primary
// contribution (§3). It compiles a Domino packet transaction onto a
// simulated PISA pipeline by:
//
//  1. canonicalizing packet fields and state variables (§3.1, Figure 4) so
//     field k occupies container k and state group j occupies stateful ALU
//     slot j, exploiting the symmetry of homogeneous grids;
//  2. generating a sketch of the datapath whose Table 1 hardware
//     configurations are synthesis holes (pisa.Backend);
//  3. solving the sketch with CEGIS over the SAT backend (internal/cegis),
//     with narrow-width synthesis and wide-width verification (§3.1,
//     "Scaling Chipmunk to a large number of input bits"); and
//  4. minimizing pipeline depth by iterative deepening over the stage
//     count — Chipmunk tries a 1-stage grid first and widens only on proof
//     of infeasibility, which is why its resource usage in Figure 5 is
//     minimal and has no variance across program mutations.
//
// The compiler rejects nothing for syntactic reasons: any program whose
// semantics fit the grid's computational capabilities compiles, which is
// the property Table 2 measures against the classical Domino baseline.
package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/cegis"
	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/pisa"
	"repro/internal/solcache"
	"repro/internal/word"
)

// Options configures a compilation.
type Options struct {
	// Target selects the compile backend: "pisa" (default) targets the
	// PISA grid of the source paper; "bpf" targets the restricted
	// eBPF-style register machine (internal/bpf, after K2). The size axis
	// the deepening search minimizes is stages for pisa and instruction
	// slots for bpf (MaxStages bounds both).
	Target string
	// Width is the PHV width: containers and ALUs per stage. Must cover
	// the program's packet fields (one container per field, §3.1).
	// Ignored by the bpf target, whose register file is derived from the
	// program's field count.
	Width int
	// MaxStages bounds the iterative-deepening search. 0 means 4.
	MaxStages int
	// BPFOpcodeMask restricts the bpf target's opcode vocabulary (a
	// bitmask over bpf.Opcode; 0 means the full ISA). The analogue of
	// choosing a per-benchmark stateful ALU template on the pisa target:
	// the machine description is a per-deployment input, and a leaner
	// ISA shrinks the synthesis search space. Ignored by pisa.
	BPFOpcodeMask uint32
	// StatelessALU is installed at every stateless grid point.
	StatelessALU alu.Stateless
	// StatefulALU is installed at every stateful grid point; per the
	// paper's evaluation it should be the template the program's original
	// Domino compilation used.
	StatefulALU alu.Stateful
	// SynthWidth and VerifyWidth set the CEGIS tier widths (0 = defaults:
	// 4 and 10 bits).
	SynthWidth  word.Width
	VerifyWidth word.Width
	// IndicatorAlloc uses indicator-variable packet-field allocation
	// instead of canonical allocation (Figure 4 ablation).
	IndicatorAlloc bool
	// SymmetryBreak asks the backend to prune grid symmetries from the
	// hole space (pisa.Backend.SymmetryBreak). Backends without
	// interchangeable resources ignore it. Verdict-preserving; off by
	// default so the standard path's clause stream is untouched.
	SymmetryBreak bool
	// FixedStages disables depth minimization and synthesizes directly at
	// MaxStages (iterative-deepening ablation).
	FixedStages bool
	// Seed drives CEGIS's initial random test inputs.
	Seed int64
	// SeedFanout, when above 1, hedges each depth's attempt across this
	// many CEGIS seeds: seed slot 0 (Seed) starts at once and slot k
	// (Seed + k*1_000_003) joins k*500ms later at the same depth, until
	// the first definitive verdict cancels the rest. A depth that resolves
	// inside the stagger never starts a hedge, while a heavy-tailed solve
	// recruits rivals that often finish first. 0 or 1 run the sequential
	// deepening loop alone.
	SeedFanout int
	// Cache, when non-nil, memoizes compilation outcomes by canonical
	// problem fingerprint (internal/solcache). Warm hits return the stored
	// configuration without invoking CEGIS; concurrent compilations of the
	// same canonical problem share one synthesis run. Timed-out runs are
	// never stored.
	Cache *solcache.Cache
	// History, when non-nil, appends one performance-history record per
	// compile: the CompileProfile rolled up from this compile's span tree
	// (internal/perfhist). When the context carries no tracer, Compile
	// installs a private one so the profile exists; history capture never
	// fails a compile — append errors are dropped.
	History *perfhist.Store
	// Explain runs the infeasibility-forensics pass when a fresh search
	// concludes infeasible (not on timeouts or cached verdicts): a gated
	// re-run with named constraint groups whose minimal UNSAT core is
	// attached to the report as Report.Explanation. Costs roughly one
	// extra compile attempt, and only when the compile already failed —
	// the feasible path is untouched.
	Explain bool
}

func (o *Options) maxStages() int {
	if o.MaxStages == 0 {
		return 4
	}
	return o.MaxStages
}

// targetName resolves the zero-value default target.
func (o *Options) targetName() string {
	if o.Target == "" {
		return "pisa"
	}
	return o.Target
}

// ErrUnknownTarget reports an unrecognized Options.Target.
var ErrUnknownTarget = fmt.Errorf("core: unknown target (want %q or %q)", "pisa", "bpf")

// bpfBackend builds the register-machine backend for a compile: the
// immediate width follows the stateless ALU's (both are the frontend's
// constant vocabulary), the register file is derived per program, and the
// opcode vocabulary follows the per-deployment machine description.
func bpfBackend(opts Options) bpf.Backend {
	return bpf.Backend{Spec: bpf.MachineSpec{
		ConstBits:  opts.StatelessALU.EffectiveConstBits(),
		OpcodeMask: opts.BPFOpcodeMask,
	}}
}

// backendFor maps Options onto a backend.Backend. Symmetry breaking is
// passed explicitly, because the forensics pass must build a
// symmetry-free backend so UNSAT cores blame only real resources.
func backendFor(opts Options, symmetry bool) (backend.Backend, error) {
	switch opts.targetName() {
	case "pisa":
		return pisa.Backend{Grid: gridSpec(opts), IndicatorAlloc: opts.IndicatorAlloc, SymmetryBreak: symmetry}, nil
	case "bpf":
		return bpfBackend(opts), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownTarget, opts.Target)
}

// DepthResult records one iterative-deepening probe (or one hedge slot's
// attempt at a depth).
type DepthResult struct {
	Stages   int
	Feasible bool
	TimedOut bool
	Iters    int
	HoleBits int
	Elapsed  time.Duration
	// Seed is the CEGIS seed the probe used (seed hedging diversifies it
	// per slot).
	Seed int64
	// Member labels the hedge slot that ran this probe (e.g. "d2.s1":
	// depth 2, seed slot 1); empty unless Options.SeedFanout > 1.
	Member string
	// Canceled marks a hedge slot whose verdict went unused because a
	// sibling slot decided the depth first; a slot stopped mid-solve that
	// way is Canceled, not TimedOut.
	Canceled bool
	// Solver-effort telemetry for this probe (see cegis.Result).
	SynthConflicts  int64
	VerifyConflicts int64
	Decisions       int64
	Propagations    int64
	PeakCNFVars     int
}

// Effort aggregates solver effort across deepening attempts — the numbers
// the evaluation harness reports alongside Table 2's wall-clock columns.
type Effort struct {
	// Iters is the total CEGIS iterations across all stage counts probed.
	Iters int
	// Conflicts sums synthesis- and verification-phase SAT conflicts.
	Conflicts    int64
	Decisions    int64
	Propagations int64
	// PeakCNFVars is the largest single-solver encoding reached.
	PeakCNFVars int
}

// Report is the outcome of a compilation.
type Report struct {
	// Program is the compiled program's name.
	Program string
	// Target names the backend compiled for ("pisa", "bpf").
	Target string
	// Feasible reports whether code generation succeeded.
	Feasible bool
	// TimedOut reports whether the context expired first (Table 2's
	// failure mode for flowlet mutations).
	TimedOut bool
	// Cached reports that the outcome came from the solution cache (or a
	// completed shared in-flight run) without a fresh CEGIS search; Depths
	// is empty in that case. A compile whose wait on a shared run expired,
	// or that received a shared run's timed-out verdict, reports TimedOut
	// with Cached false — nothing definitive came from the cache.
	Cached bool
	// Artifact is the synthesized configuration when feasible, whatever
	// the target.
	Artifact backend.Config
	// Config is Artifact's concrete type for the PISA target (nil for
	// other targets), kept for existing callers' static typing.
	Config *pisa.Config
	// Usage is the Figure 5 resource report for Config (PISA only).
	Usage pisa.Usage
	// Depths records every stage count probed, in order. A hedged compile
	// holds one entry per seed slot that ran, ordered by depth then slot.
	Depths []DepthResult
	// Winner labels the hedge slot that produced Config (empty unless
	// Options.SeedFanout > 1).
	Winner string
	// WastedConflicts sums the SAT conflicts of the Canceled slots — the
	// redundancy cost of hedging. Zero without hedging.
	WastedConflicts int64
	// Explanation is the infeasibility-forensics report (Options.Explain):
	// the binding resource dimension and a minimal blamed constraint set.
	// Nil unless the compile concluded infeasible with Explain set.
	Explanation *Explanation
	// Elapsed is total compile time (Table 2's time column).
	Elapsed time.Duration
}

// Effort sums the solver effort of every deepening attempt in the report.
func (r *Report) Effort() Effort {
	var e Effort
	for _, d := range r.Depths {
		e.Iters += d.Iters
		e.Conflicts += d.SynthConflicts + d.VerifyConflicts
		e.Decisions += d.Decisions
		e.Propagations += d.Propagations
		if d.PeakCNFVars > e.PeakCNFVars {
			e.PeakCNFVars = d.PeakCNFVars
		}
	}
	return e
}

// Compile runs Chipmunk on a program. Cancel or time out the context to
// bound code-generation time; an expired context yields a Report with
// TimedOut set rather than an error.
//
// With Options.Cache set, the problem's canonical fingerprint is consulted
// first: a warm hit skips synthesis entirely and returns the stored
// configuration — translated onto this program's own variable names, since
// alpha-renamed programs share a fingerprint — with Report.Cached set, and
// concurrent compilations of the same canonical problem share a single
// underlying CEGIS run.
func Compile(ctx context.Context, prog *ast.Program, opts Options) (*Report, error) {
	start := time.Now()
	rep := &Report{Program: prog.Name, Target: opts.targetName()}
	if _, err := backendFor(opts, opts.SymmetryBreak); err != nil {
		return nil, err
	}

	// History capture needs a span tree to roll up; give the compile a
	// private tracer when the caller installed none.
	if opts.History != nil && obs.TracerFrom(ctx) == nil {
		ctx = obs.ContextWithTracer(ctx, obs.NewTracer())
	}

	ctx, span := obs.StartSpan(ctx, "compile",
		obs.String("program", prog.Name), obs.Int("width", opts.Width))
	defer func() {
		attrs := []obs.Attr{obs.Bool("feasible", rep.Feasible), obs.Bool("timedout", rep.TimedOut),
			obs.Bool("cached", rep.Cached), obs.Int("attempts", len(rep.Depths))}
		if opts.SeedFanout > 1 {
			attrs = append(attrs, hedgeAttrs(rep)...)
		}
		span.End(attrs...)
		if opts.History != nil {
			if p, perr := obs.TracerFrom(ctx).Profile(); perr == nil {
				opts.History.AppendProfile(prog.Name, p)
			}
		}
	}()

	if opts.Cache != nil {
		key := cacheKey(prog, opts)
		ran := false
		sol, err := opts.Cache.Do(ctx, key, func(ctx context.Context) (solcache.Solution, bool, error) {
			ran = true
			if err := search(ctx, prog, opts, rep); err != nil {
				return solcache.Solution{}, false, err
			}
			sol := solcache.Solution{
				Feasible: rep.Feasible,
				TimedOut: rep.TimedOut,
				Config:   rep.Config,
				Stages:   rep.Usage.Stages,
				Iters:    rep.Effort().Iters,
			}
			if bc, ok := rep.Artifact.(*bpf.Config); ok {
				sol.BPF = bc
				sol.Stages = bc.Spec.Slots
			}
			return sol, !rep.TimedOut, nil
		})
		if err != nil {
			return nil, err
		}
		switch {
		case ran:
			// Leader: rep was filled by search directly.
		case sol.TimedOut:
			// Follower whose wait on the shared run expired, or whose
			// leader itself timed out: a timeout, not a cache hit.
			rep.TimedOut = true
		default:
			// Cache hit or completed shared run. The stored config names
			// the variables of whichever program first solved this
			// canonical problem — alpha-renamed programs collide by
			// design — so translate it onto this program's names, then
			// cross-check it against this program's semantics exactly as a
			// fresh synthesis would be.
			sol, err = sol.ForProgram(prog)
			if err != nil {
				return nil, fmt.Errorf("core: %s: %w", prog.Name, err)
			}
			rep.Cached = true
			rep.Feasible = sol.Feasible
			rep.Config = sol.Config
			if sol.Config != nil {
				rep.Artifact = sol.Config
				rep.Usage = sol.Config.Usage()
			}
			if sol.BPF != nil {
				rep.Artifact = sol.BPF
			}
			if rep.Artifact != nil {
				if err := crossCheck(ctx, prog, rep.Artifact, opts.Seed); err != nil {
					return nil, fmt.Errorf("core: %s: cached configuration: %w", prog.Name, err)
				}
			}
		}
		maybeExplain(ctx, prog, opts, rep)
		rep.Elapsed = time.Since(start)
		return rep, nil
	}

	if err := search(ctx, prog, opts, rep); err != nil {
		return nil, err
	}
	maybeExplain(ctx, prog, opts, rep)
	rep.Elapsed = time.Since(start)
	return rep, nil
}

// Fingerprint returns the canonical solution-cache fingerprint of a
// compilation as a string — the correlation key joining a daemon's
// structured log lines, flight-recorder dumps, and cache entries for one
// canonical problem. Alpha-renamed programs share a fingerprint by
// design (see solcache).
func Fingerprint(prog *ast.Program, opts Options) string {
	return string(cacheKey(prog, opts))
}

// cacheKey derives the solution-cache fingerprint for a compilation. The
// seed, SeedFanout and SymmetryBreak are excluded: they steer the search,
// not the validity of its result — symmetry breaking is
// verdict-preserving — so one canonical problem keeps one fingerprint
// regardless of strategy and a hedge winner populates the same entry a
// sequential run would.
func cacheKey(prog *ast.Program, opts Options) solcache.Key {
	p := solcache.Problem{
		Program: prog,
		Target:  opts.targetName(),
		Grid: pisa.GridSpec{
			Width:        opts.Width,
			WordWidth:    10,
			StatelessALU: opts.StatelessALU,
			StatefulALU:  opts.StatefulALU,
		},
		MaxStages:      opts.maxStages(),
		FixedStages:    opts.FixedStages,
		SynthWidth:     opts.SynthWidth,
		VerifyWidth:    opts.VerifyWidth,
		IndicatorAlloc: opts.IndicatorAlloc,
	}
	if p.Target == "bpf" {
		p.BPF = bpfBackend(opts).Spec
	}
	return p.Fingerprint()
}

// gridSpec builds the grid template shared by every attempt of a compile.
func gridSpec(opts Options) pisa.GridSpec {
	return pisa.GridSpec{
		Width:        opts.Width,
		WordWidth:    10, // placeholder; CEGIS manages widths
		StatelessALU: opts.StatelessALU,
		StatefulALU:  opts.StatefulALU,
	}
}

// attempt runs one synthesis probe at a fixed program size (stage count
// for pisa, slot count for bpf): build the backend, run CEGIS, and
// validate + interpreter-cross-check a feasible configuration. The
// returned cegis.Result carries the configuration when feasible.
func attempt(ctx context.Context, prog *ast.Program, opts Options, stages int, copts cegis.Options) (DepthResult, *cegis.Result, error) {
	be, err := backendFor(opts, opts.SymmetryBreak)
	if err != nil {
		return DepthResult{}, nil, err
	}
	attrs := []obs.Attr{obs.Int("stages", stages)}
	if copts.Member != "" {
		attrs = append(attrs, obs.String("member", copts.Member))
	}
	actx, aspan := obs.StartSpan(ctx, "attempt", attrs...)
	res, err := cegis.SynthesizeOn(actx, prog, be, stages, copts)
	if err != nil {
		aspan.End(obs.String("outcome", "error"))
		return DepthResult{}, nil, fmt.Errorf("core: %s at %d stages: %w", prog.Name, stages, err)
	}
	outcome := "infeasible"
	switch {
	case res.TimedOut:
		outcome = "timeout"
	case res.Feasible:
		outcome = "feasible"
	}
	aspan.End(obs.String("outcome", outcome), obs.Int("iters", res.Iters))
	dr := DepthResult{
		Stages:          stages,
		Feasible:        res.Feasible,
		TimedOut:        res.TimedOut,
		Iters:           res.Iters,
		HoleBits:        res.HoleBits,
		Elapsed:         res.Elapsed,
		Seed:            copts.Seed,
		Member:          copts.Member,
		SynthConflicts:  res.SynthConflicts,
		VerifyConflicts: res.VerifyConflicts,
		Decisions:       res.Decisions,
		Propagations:    res.Propagations,
		PeakCNFVars:     res.PeakCNFVars,
	}
	if res.Feasible {
		if err := res.TargetConfig.Validate(); err != nil {
			return dr, nil, fmt.Errorf("core: synthesized configuration invalid: %w", err)
		}
		if err := crossCheck(ctx, prog, res.TargetConfig, copts.Seed); err != nil {
			return dr, nil, fmt.Errorf("core: %s: %w", prog.Name, err)
		}
	}
	return dr, res, nil
}

// search runs the iterative-deepening synthesis loop, filling rep in
// place. Each depth's attempt goes through hedge, which with
// Options.SeedFanout <= 1 is one plain attempt at Seed.
func search(ctx context.Context, prog *ast.Program, opts Options, rep *Report) error {
	lo := 1
	if opts.FixedStages {
		lo = opts.maxStages()
	}
	for stages := lo; stages <= opts.maxStages(); stages++ {
		slots, won, err := hedge(ctx, opts.SeedFanout, func(ctx context.Context, slot int) (DepthResult, *cegis.Result, error) {
			copts := cegis.Options{
				SynthWidth:  opts.SynthWidth,
				VerifyWidth: opts.VerifyWidth,
				Seed:        opts.Seed + int64(slot)*seedStride,
			}
			if opts.SeedFanout > 1 {
				copts.Member = fmt.Sprintf("d%d.s%d", stages, slot)
			}
			return attempt(ctx, prog, opts, stages, copts)
		})
		if err != nil {
			return err
		}
		for _, s := range slots {
			rep.Depths = append(rep.Depths, s.dr)
			if s.dr.Canceled {
				rep.WastedConflicts += s.dr.SynthConflicts + s.dr.VerifyConflicts
			}
		}
		if won < 0 {
			rep.TimedOut = true
			break
		}
		res := slots[won].res
		if !res.Feasible {
			continue
		}
		rep.Feasible = true
		rep.Artifact = res.TargetConfig
		if cfg, ok := res.TargetConfig.(*pisa.Config); ok {
			rep.Config = cfg
			rep.Usage = cfg.Usage()
		}
		rep.Winner = slots[won].dr.Member
		break
	}
	return nil
}

// hedgeAttrs are a hedged compile's span attributes: the winning slot,
// and the conflicts and milliseconds its Canceled siblings spent.
func hedgeAttrs(rep *Report) []obs.Attr {
	var wasted time.Duration
	for _, d := range rep.Depths {
		if d.Canceled {
			wasted += d.Elapsed
		}
	}
	return []obs.Attr{obs.String("winner", rep.Winner),
		obs.Int64("wasted_conflicts", rep.WastedConflicts),
		obs.Float("wasted_ms", float64(wasted.Microseconds())/1000)}
}

// crossCheck differentially tests the synthesized configuration against the
// reference interpreter on 64 random inputs at the configuration's run
// width. CEGIS already proved equivalence at that width through the SAT
// backend; this guards the toolchain itself (sketch extraction, simulator)
// against bugs, in the spirit of translation validation. It runs on every
// compile and cache hit, so it draws far fewer inputs than the full
// oracle (backend.CheckEquivalence). It runs in a "core.crosscheck" span.
func crossCheck(ctx context.Context, prog *ast.Program, cfg backend.Config, seed int64) error {
	_, span := obs.StartSpan(ctx, "core.crosscheck")
	defer span.End()
	fields, states := cfg.Vars()
	rng := rand.New(rand.NewSource(seed + 1))
	if m := backend.Probe(cfg.RunWidth(), len(fields)+len(states), rng, 64, backend.NewChecker(prog, cfg).Compare); m != nil {
		return fmt.Errorf("cross-check failed: %w", m)
	}
	return nil
}
