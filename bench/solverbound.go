package bench

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/pisa"
	"repro/internal/programs"
)

// solverCase is one solver-bound compile: a corpus program at a fixed
// size on one target, with its pinned verdict.
type solverCase struct {
	program string
	target  string // "pisa" or "bpf"
	// size is MaxStages: the deepening bound for pisa, the fixed slot
	// budget for bpf.
	size int
	seed int64
	// feasible is the pinned verdict. Infeasible cases run the
	// infeasibility forensics, as `chipmunk -explain` does.
	feasible bool
}

func (c solverCase) label() string { return fmt.Sprintf("%s/%s@%d", c.program, c.target, c.size) }

func (c solverCase) options(b programs.Benchmark) core.Options {
	opts := corpusOptions(b)
	opts.Target = c.target
	opts.MaxStages = c.size
	opts.Seed = c.seed
	opts.FixedStages = c.target == "bpf"
	opts.Explain = !c.feasible
	return opts
}

// solverCases are compiles where synthesis SAT dominates: feasible bpf
// programs at the hand-worked slot budgets of difftest's BPF corpus test,
// infeasibility proofs with forensics below those budgets (bpf) and at one
// stage (pisa), and marple_reorder at its full pisa budget, which proves
// depth 1 infeasible before solving depth 2. The heavier budgets of the
// BPF corpus test (marple_reorder@7, sampling@8, sampling@5 infeasible)
// take 8-21 s each and do not fit one run.
var solverCases = []solverCase{
	{"marple_new_flow", "bpf", 5, 1, true},
	{"stateful_fw", "bpf", 6, 1, true},
	{"marple_reorder", "pisa", 3, compileSeed, true},
	{"marple_new_flow", "bpf", 3, compileSeed, false},
	{"stateful_fw", "bpf", 3, compileSeed, false},
	{"blue_decrease", "bpf", 3, compileSeed, false},
	{"marple_reorder", "pisa", 1, compileSeed, false},
}

// checkCase checks a solver-bound compile against its pinned verdict.
func checkCase(c solverCase, rep *core.Report) error {
	switch {
	case rep.TimedOut:
		return fmt.Errorf("%s: timed out", c.label())
	case rep.Feasible != c.feasible:
		return fmt.Errorf("%s: feasible=%v, want %v", c.label(), rep.Feasible, c.feasible)
	case c.feasible && c.target == "pisa":
		return checkPinned(c.program, rep)
	case c.feasible:
		if bc, ok := rep.Artifact.(*bpf.Config); !ok || bc.Spec.Slots != c.size {
			return fmt.Errorf("%s: artifact %T is not a %d-slot bpf program", c.label(), rep.Artifact, c.size)
		}
		return nil
	}
	want := core.DimStageDepth
	if c.target == "bpf" {
		want = core.DimSlots
	}
	exp := rep.Explanation
	switch {
	case exp == nil:
		return fmt.Errorf("%s: infeasible without an explanation", c.label())
	case exp.Dimension != want || !exp.Minimal || exp.Incomplete != "":
		return fmt.Errorf("%s: explanation blames %s (minimal=%v, incomplete=%q), want a minimal %s core",
			c.label(), exp.Dimension, exp.Minimal, exp.Incomplete, want)
	}
	return nil
}

// SolverBound is the synthesis-SAT-bound workload: a fixed list of
// feasible and infeasible compiles on both targets, run in whole passes.
// The seed orders each pass.
type SolverBound struct {
	cases []solverCase
}

// solverPassCost is one pass's expected cost.
const solverPassCost = 1600 * time.Millisecond

// Run executes the workload.
func (w SolverBound) Run(ctx context.Context, p Plan) (*Result, error) {
	res := &Result{Workload: "solver-bound", Seed: p.Seed, Traced: p.Trace, Metrics: map[string]float64{}}
	tl := &tally{}
	pr := newProber(p.Seed)
	// Set-up: resolve and parse every case's source, and warm the process
	// with one compile of the first case (checked).
	var benches []programs.Benchmark
	setups, err := timeSetups(p.Setups, func() error {
		benches = benches[:0]
		for _, c := range w.cases {
			b, err := programs.ByName(c.program)
			if err != nil {
				return err
			}
			if _, err := pr.parse(b.Name, b.Source); err != nil {
				return err
			}
			benches = append(benches, b)
		}
		_, rep, _, err := compileOp(ctx, pr, nil, w.cases[0].program, benches[0].Name, benches[0].Source, w.cases[0].options(benches[0]))
		if err == nil {
			err = checkCase(w.cases[0], rep)
		}
		tl.check(err)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		prog *ast.Program
		cfg  backend.Config
	}
	first := map[int]outcome{}
	rng := newRand(p.Seed, 1)
	pass := func(_ int, tr *tracing, m *measurement) (busy time.Duration) {
		for _, i := range rng.Perm(len(w.cases)) {
			c, b := w.cases[i], benches[i]
			a0 := heapAllocated()
			prog, rep, d, err := compileOp(ctx, pr, tr, c.program, b.Name, b.Source, c.options(b))
			m.op(c.label(), d, heapAllocated()-a0)
			busy += d
			if err == nil {
				err = checkCase(c, rep)
			}
			if err == nil && rep.Feasible {
				err = pr.check(prog, rep.Artifact)
				if _, ok := first[i]; !ok {
					first[i] = outcome{prog, rep.Artifact}
				}
			}
			tl.check(err)
		}
		return busy
	}

	if p.Trace {
		tr := &tracing{}
		untraced, traced := tracedPass(rounds(p.Measure, solverPassCost), tr, pass)
		var cfgs []*pisa.Config
		for _, i := range sortedInts(first) {
			if pc, ok := first[i].cfg.(*pisa.Config); ok {
				cfgs = append(cfgs, pc)
			}
		}
		var et engineTimes
		replayConfigs(cfgs, genTrace(probeTracePackets, p.Seed), &et, tl)
		compileLayers(res, tr, pr, &et, traced, untraced)
		return finish(res, tl), writeTrace(p, res.Workload, &tr.sink)
	}

	m := newMeasurement()
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < p.Measure; r++ {
		m.round(float64(len(w.cases)), pass(r, nil, m))
	}
	// Every feasible case's configuration gets its target's full oracle
	// once per run.
	for _, i := range sortedInts(first) {
		o := first[i]
		var d *difftest.Discrepancy
		switch cfg := o.cfg.(type) {
		case *bpf.Config:
			d = difftest.CheckBPFConfigEquivalence(o.prog, cfg, p.Seed)
		case *pisa.Config:
			d = difftest.CheckConfigEquivalence(o.prog, cfg, p.Seed)
		}
		var err error
		if d != nil {
			err = fmt.Errorf("%s: %s", w.cases[i].label(), d)
		}
		tl.check(err)
	}
	res.Samples = m.lat.count()
	res.Metrics, res.Info = m.metrics(setups)
	return finish(res, tl), nil
}

func sortedInts[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
