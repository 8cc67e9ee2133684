package difftest

import (
	"context"
	"fmt"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/mutate"
	"repro/internal/word"
)

// compileOptions builds the core.Options for a scenario.
func compileOptions(sc Scenario, seed int64) core.Options {
	return core.Options{
		Width:        sc.Width,
		MaxStages:    sc.MaxStages,
		StatelessALU: sc.Stateless,
		StatefulALU:  sc.Stateful,
		Seed:         seed,
	}
}

// CheckMetamorphic applies the metamorphic oracle: semantics-preserving
// rewrites (internal/mutate) of a program must not change its compile
// outcome. Feasibility and minimum pipeline depth are semantic properties
// of (program, grid, ALU) — the sketch depends only on variable counts,
// and mutation preserves both the variable set and the transaction
// semantics — so any disagreement is a compiler bug, the exact property
// the paper's Figure 5 "no variance across mutations" claim rests on.
//
// Before trusting a mutant as an oracle, each one is itself checked
// equivalent to the source program via the interpreter (exhaustively at a
// small width when feasible, randomly at the verification width
// otherwise), so a non-semantics-preserving rewrite is reported as a
// mutate bug rather than a bogus compiler discrepancy. Timeouts on either
// side make that comparison inconclusive and are skipped.
func CheckMetamorphic(ctx context.Context, sc Scenario, nMutants int, seed int64) ([]Discrepancy, error) {
	rep, err := core.Compile(ctx, sc.Prog, compileOptions(sc, seed))
	if err != nil {
		return []Discrepancy{{Kind: KindCompileError, Detail: err.Error()}}, nil
	}
	if rep.TimedOut {
		return nil, nil
	}

	var out []Discrepancy
	muts := mutate.Generate(sc.Prog, nMutants, seed)
	for _, m := range muts {
		if d := checkMutantEquivalent(sc, m, seed); d != nil {
			out = append(out, *d)
			continue
		}
		mrep, err := core.Compile(ctx, m.Program, compileOptions(sc, seed))
		if err != nil {
			out = append(out, Discrepancy{
				Kind:   KindCompileError,
				Detail: fmt.Sprintf("mutant %s (%v): %v", m.Program.Name, m.Applied, err),
			})
			continue
		}
		if mrep.TimedOut {
			continue
		}
		if mrep.Feasible != rep.Feasible {
			out = append(out, Discrepancy{
				Kind: KindMetamorphic,
				Detail: fmt.Sprintf("source feasible=%v but mutant %s (%v) feasible=%v\nsource:\n%s\nmutant:\n%s",
					rep.Feasible, m.Program.Name, m.Applied, mrep.Feasible, sc.Prog.Print(), m.Program.Print()),
			})
			continue
		}
		if rep.Feasible && mrep.Usage.Stages != rep.Usage.Stages {
			out = append(out, Discrepancy{
				Kind: KindMetamorphic,
				Detail: fmt.Sprintf("source needs %d stages but mutant %s (%v) needs %d\nsource:\n%s\nmutant:\n%s",
					rep.Usage.Stages, m.Program.Name, m.Applied, mrep.Usage.Stages, sc.Prog.Print(), m.Program.Print()),
			})
		}
	}
	return out, nil
}

// checkMutantEquivalent verifies the mutation itself preserved semantics.
func checkMutantEquivalent(sc Scenario, m mutate.Mutant, seed int64) *Discrepancy {
	vars := sc.Prog.Variables()
	nVars := len(vars.Fields) + len(vars.States)

	// Exhaustive at width 3 when the space fits (mirrors the interpreter's
	// own feasibility bound), random at the verification width otherwise.
	const w = word.Width(3)
	if int(w)*nVars <= backend.ExhaustiveBits {
		in := interp.MustNew(w)
		eq, cex, err := in.Equivalent(sc.Prog, m.Program)
		if err != nil {
			return &Discrepancy{Kind: KindMutantInequiv, Detail: err.Error()}
		}
		if !eq {
			return &Discrepancy{
				Kind: KindMutantInequiv,
				Detail: fmt.Sprintf("mutant %v differs from source at width %d input %s\nsource:\n%s\nmutant:\n%s",
					m.Applied, w, cex, sc.Prog.Print(), m.Program.Print()),
			}
		}
	}
	return randomEquivalent(sc.Prog, m.Program, seed)
}
