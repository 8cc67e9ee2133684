package difftest

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/pisa"
	"repro/internal/programs"
)

// FuzzSolver derives a CNF from fuzz bytes and differentially tests the
// production CDCL solver against the enumeration and DPLL references,
// including model validation and the DIMACS round trip.
func FuzzSolver(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{255, 0, 255, 0, 255, 0})
	f.Add([]byte("dense unsat region steering bytes"))
	f.Fuzz(func(t *testing.T, data []byte) {
		formula := RandomFormula(NewByteChooser(data))
		if d := CheckSolver(formula, nil); d != nil {
			t.Fatal(d)
		}
		if d := CheckDIMACSRoundTrip(formula); d != nil {
			t.Fatal(d)
		}
	})
}

// FuzzCompileEquivalence derives a compile scenario from fuzz bytes, runs
// it through the full stack, and re-validates a feasible result against
// the brute-force interpreter oracle. Infeasible and timed-out outcomes
// are accepted as-is (the campaign's hole-sampling spot check covers
// those); what the fuzzer hunts here is a config that CEGIS "verified"
// but that disagrees with the reference semantics.
func FuzzCompileEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{200, 13, 86, 42, 9, 111, 250, 3, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := RandomScenario(NewByteChooser(data), GenOptions{})
		ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
		defer cancel()
		rep, err := core.Compile(ctx, sc.Prog, compileOptions(sc, 1))
		if err != nil {
			t.Fatalf("compile error on generated program: %v\n%s", err, sc.Prog.Print())
		}
		if rep.TimedOut || !rep.Feasible {
			return
		}
		if d := CheckConfigEquivalence(sc.Prog, rep.Config, 1); d != nil {
			t.Fatalf("%s\nprogram:\n%s", d, sc.Prog.Print())
		}
	})
}

// FuzzBPFCompileEquivalence is the register-machine sibling of
// FuzzCompileEquivalence: the same scenario draw, compiled for the bpf
// target at the fixed fuzz slot budget, with feasible results re-validated
// against the BPF brute-force oracle. Infeasible and timed-out outcomes
// are accepted — register-machine synthesis is slower than the grid's, so
// timeouts are common under fuzz instrumentation; what matters is that a
// "verified" register program never disagrees with the reference
// interpreter.
func FuzzBPFCompileEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7})
	f.Add([]byte{200, 13, 86, 42, 9, 111, 250, 3, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := RandomScenario(NewByteChooser(data), GenOptions{})
		// 5s rather than the grid target's 8s: register-machine synthesis
		// under fuzz instrumentation times out on a sizable fraction of
		// draws, and a shorter leash buys iteration throughput.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rep, err := core.Compile(ctx, sc.Prog, bpfScenarioOptions(sc, 1))
		if err != nil {
			t.Fatalf("compile error on generated program: %v\n%s", err, sc.Prog.Print())
		}
		if rep.TimedOut || !rep.Feasible {
			return
		}
		cfg, ok := rep.Artifact.(*bpf.Config)
		if !ok {
			t.Fatalf("bpf artifact is %T, want *bpf.Config", rep.Artifact)
		}
		if d := CheckConfigEquivalence(sc.Prog, cfg, 1); d != nil {
			t.Fatalf("%s\nprogram:\n%s", d, sc.Prog.Print())
		}
	})
}

// FuzzCompiledExec derives a random configuration from fuzz bytes — no
// synthesis in the loop, so iterations are cheap — and differentially
// tests the execution paths: the compiled line-rate engine against the
// allocation-free Config.ExecInto, including an exhaustive small-space
// sweep when the input space fits a fuzz-friendly budget, and ExecInto
// against the generic Datapath over uint64, the independent reference.
func FuzzCompiledExec(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9})
	f.Add([]byte{0, 255, 0, 255, 8, 8, 8, 8})
	f.Add([]byte{42, 17, 99, 1, 2, 3, 250, 128, 64, 32, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := RandomConfig(NewByteChooser(data))
		if err := cfg.Validate(); err != nil {
			t.Fatalf("RandomConfig built an invalid config: %v", err)
		}
		// Budgets are deliberately small: under fuzz instrumentation each
		// transaction costs microseconds, and throughput matters more than
		// per-input depth (the campaign and linerate tests go deep).
		nVars := len(cfg.Fields) + len(cfg.States)
		if 5*nVars <= 10 {
			if d := backend.Sweep(5, nVars, engineCheck(cfg.WithRunWidth(5))); d != nil {
				t.Fatalf("%s\nconfig:\n%s", d, cfg)
			}
		}
		w := cfg.Grid.WordWidth
		rng := rand.New(rand.NewSource(1))
		if d := backend.Probe(w, nVars, rng, 512, engineCheck(cfg)); d != nil {
			t.Fatalf("%s\nconfig:\n%s", d, cfg)
		}
		// Triangulate the slice path against the generic reference.
		a := arith.Conc{W: w}
		exec := cfg.NewExecutor()
		fv := make([]uint64, len(cfg.Fields))
		sv := make([]uint64, len(cfg.States))
		for trial := 0; trial < 32; trial++ {
			for i := range fv {
				fv[i] = w.Trunc(rng.Uint64())
			}
			for i := range sv {
				sv[i] = w.Trunc(rng.Uint64())
			}
			wantF, wantS := pisa.Datapath[uint64](a, cfg.Grid, cfg.Values, fv, sv)
			exec(fv, sv)
			for i, name := range cfg.Fields {
				if fv[i] != wantF[i] {
					t.Fatalf("pkt.%s: ExecInto=%d Datapath=%d\nconfig:\n%s", name, fv[i], wantF[i], cfg)
				}
			}
			for i, name := range cfg.States {
				if sv[i] != wantS[i] {
					t.Fatalf("state %s: ExecInto=%d Datapath=%d\nconfig:\n%s", name, sv[i], wantS[i], cfg)
				}
			}
		}
	})
}

// FuzzConfigJSON fuzzes the configuration boundary: the bytes pisasim
// -config and solcache.Load unmarshal into a pisa.Config. Whatever
// Validate accepts must compile to the line-rate engine, run under both
// executors without panicking, and agree between them. The seeds are a
// synthesized corpus configuration and four one-edit variants of it that
// each used to panic, in Validate or in an executor, instead of being
// rejected.
func FuzzConfigJSON(f *testing.F) {
	b, err := programs.ByName("sampling")
	if err != nil {
		f.Fatal(err)
	}
	rep, err := core.Compile(context.Background(), b.Parse(), core.Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         1,
	})
	if err != nil || !rep.Feasible {
		f.Fatalf("compiling the seed configuration: %v", err)
	}
	cfg := rep.Config
	for _, edit := range []func(c *pisa.Config){
		func(*pisa.Config) {},
		func(c *pisa.Config) { c.Values = nil },
		func(c *pisa.Config) { c.Grid.Stages++ },
		func(c *pisa.Config) { c.Grid.StatefulALU.Kind = 99 },
		func(c *pisa.Config) { c.Values.OMux = [][]uint64{{}} },
	} {
		c := *cfg
		h := *cfg.Values
		c.Values = &h
		edit(&c)
		data, err := json.Marshal(&c)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cfg pisa.Config
		if json.Unmarshal(data, &cfg) != nil || cfg.Validate() != nil {
			return
		}
		nVars := len(cfg.Fields) + len(cfg.States)
		rng := rand.New(rand.NewSource(1))
		if d := backend.Probe(cfg.Grid.WordWidth, nVars, rng, 256, engineCheck(&cfg)); d != nil {
			t.Fatalf("%s\nconfig:\n%s", d, &cfg)
		}
	})
}
