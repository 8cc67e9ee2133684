package difftest

import (
	"fmt"
	"math/rand"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/cegis"
	"repro/internal/interp"
	"repro/internal/linerate"
	"repro/internal/pisa"
)

// Discrepancy is one oracle violation: concrete evidence that two layers
// of the toolchain disagree. Kind names the oracle; Detail is
// human-readable evidence including the offending input.
type Discrepancy struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (d *Discrepancy) String() string { return d.Kind + ": " + d.Detail }

// Oracle kinds.
const (
	KindConfigMismatch  = "config-mismatch"     // interpreter vs simulated config disagree
	KindSolverMismatch  = "solver-mismatch"     // CDCL vs reference solver verdicts disagree
	KindModelInvalid    = "model-invalid"       // CDCL SAT model does not satisfy the formula
	KindDIMACSRoundTrip = "dimacs-roundtrip"    // emit/parse round trip lost the formula
	KindMetamorphic     = "metamorphic"         // mutant compile outcome differs from source
	KindMutantInequiv   = "mutant-inequivalent" // a "semantics-preserving" rewrite changed semantics
	KindMissedSolution  = "missed-solution"     // infeasible claim, but sampling found a config
	KindCompileError    = "compile-error"       // Compile returned a hard error
	KindConfigInvalid   = "config-invalid"      // synthesized config fails validation
	KindEngineMismatch  = "engine-mismatch"     // compiled line-rate engine vs interpreted datapath disagree
	KindCoreNotMinimal  = "core-not-minimal"    // blamed UNSAT core fails its minimality contract on re-solve
	KindExplainDiverged = "explain-diverged"    // gated forensics rerun found a config where ungated proved UNSAT
)

// CheckConfigEquivalence is the brute-force reference oracle for feasible
// compile results on every target: the synthesized configuration must
// agree with the reference interpreter input-for-input, exhaustively at a
// small width when the input space fits and on random probes at the
// configuration's own (verification) width either way. See
// backend.CheckEquivalence.
func CheckConfigEquivalence(prog *ast.Program, cfg backend.Config, seed int64) *Discrepancy {
	return discrepancy(backend.CheckEquivalence(prog, cfg, seed))
}

// discrepancy classifies an oracle mismatch: an input the interpreter
// rejects is a compile error, any other disagreement a config mismatch.
func discrepancy(m *backend.Mismatch) *Discrepancy {
	switch {
	case m == nil:
		return nil
	case m.Err != nil:
		return &Discrepancy{Kind: KindCompileError, Detail: m.Error()}
	}
	return &Discrepancy{Kind: KindConfigMismatch, Detail: m.Error()}
}

// randomEquivalent compares two programs on random inputs at the CEGIS
// verification width, returning a mutant-inequivalence discrepancy on the
// first disagreement.
func randomEquivalent(a, b *ast.Program, seed int64) *Discrepancy {
	const w = cegis.DefaultVerifyWidth
	va, vb := a.Variables(), b.Variables()
	fields := append(append([]string{}, va.Fields...), vb.Fields...)
	states := append(append([]string{}, va.States...), vb.States...)
	in := interp.MustNew(w)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 64; trial++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = w.Trunc(rng.Uint64())
		}
		for _, s := range states {
			snap.State[s] = w.Trunc(rng.Uint64())
		}
		ra, err := in.Run(a, snap)
		if err != nil {
			return &Discrepancy{Kind: KindMutantInequiv, Detail: err.Error()}
		}
		rb, err := in.Run(b, snap)
		if err != nil {
			return &Discrepancy{Kind: KindMutantInequiv, Detail: err.Error()}
		}
		if !ra.Equal(rb, va.Fields, va.States) {
			return &Discrepancy{
				Kind:   KindMutantInequiv,
				Detail: fmt.Sprintf("programs differ at width %d input %s:\n%s\nvs\n%s", w, snap, a.Print(), b.Print()),
			}
		}
	}
	return nil
}

// CheckEngineEquivalence is the differential oracle for the line-rate
// subsystem: the compiled engine (internal/linerate) must agree with the
// interpreted datapath (Config.ExecInto) on every input backend.Drive
// generates with the given probe count. Neither side runs the reference
// interpreter, so probes are cheap.
func CheckEngineEquivalence(cfg *pisa.Config, seed int64, probes int) *Discrepancy {
	return backend.Drive(cfg, seed, probes, engineCheck)
}

// engineCheck returns the compare step of CheckEngineEquivalence for one
// configuration: an input runs through both execution paths, and the
// first output they disagree on is reported.
func engineCheck(c backend.Config) func(in []uint64) *Discrepancy {
	cfg := c.(*pisa.Config)
	eng, err := linerate.Compile(cfg)
	if err != nil {
		d := &Discrepancy{Kind: KindEngineMismatch, Detail: fmt.Sprintf("engine compile failed: %v", err)}
		return func([]uint64) *Discrepancy { return d }
	}
	exec, buf := cfg.NewExecutor(), eng.NewBuf()
	nf := len(cfg.Fields)
	ref := make([]uint64, nf+len(cfg.States))
	got := make([]uint64, len(ref))
	return func(in []uint64) *Discrepancy {
		copy(ref, in)
		copy(got, in)
		exec(ref[:nf], ref[nf:])
		eng.ExecInto(buf, got[:nf], got[nf:])
		for i := range ref {
			if got[i] != ref[i] {
				var name string
				if i < nf {
					name = "pkt." + cfg.Fields[i]
				} else {
					name = "state " + cfg.States[i-nf]
				}
				return &Discrepancy{
					Kind: KindEngineMismatch,
					Detail: fmt.Sprintf("width %d input %v: engine %s = %d, interpreter says %d",
						cfg.Grid.WordWidth, in, name, got[i], ref[i]),
				}
			}
		}
		return nil
	}
}
