package bench

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/difftest"
	"repro/internal/pisa"
)

// Table2 is the paper's Table 2 workload: seeded mutants of the 8 corpus
// programs, each compiled cold (no cache, default options, CEGIS seed 7)
// from printed source text to a verdict, one at a time.
type Table2 struct {
	// Mutants is the per-program mutant pool; round r compiles mutant
	// r mod Mutants of every program, in a seeded order.
	Mutants int
	// Oracle is how many programs get the full difftest oracle on one
	// seeded-sampled compile per run (it costs up to ~3 s per config).
	Oracle int
}

// table2RoundCost is one round's expected cost: 7 programs at 4-60 ms and
// marple_reorder at 0.2-1 s.
const table2RoundCost = 700 * time.Millisecond

// probeTracePackets is the trace length of the traced runs' data-plane
// probe of compiled configurations.
const probeTracePackets = 20_000

type compiled struct {
	prog *ast.Program
	cfg  *pisa.Config
}

// Run executes the workload.
func (w Table2) Run(ctx context.Context, p Plan) (*Result, error) {
	res := &Result{Workload: "table2", Seed: p.Seed, Traced: p.Trace, Metrics: map[string]float64{}}
	tl := &tally{}
	pr := newProber(p.Seed)
	var progs []*corpusProg
	setups, err := timeSetups(p.Setups, func() error {
		progs = loadCorpus(ctx, pr, nil, tl, w.Mutants, p.Seed)
		return nil
	}, nil)
	if err != nil {
		return nil, err
	}
	for _, cp := range progs {
		if len(cp.srcs) == 0 {
			return nil, fmt.Errorf("table2: no mutants of %s", cp.bench.Name)
		}
	}

	// round compiles one mutant of every program, checking each verdict
	// and probing each configuration; it records per-compile latencies
	// and returns the time spent compiling.
	rng := newRand(p.Seed, 1)
	byProg := map[string][]compiled{}
	round := func(r int, tr *tracing, m *measurement) (busy time.Duration) {
		for _, i := range rng.Perm(len(progs)) {
			cp := progs[i]
			k := r % len(cp.srcs)
			a0 := heapAllocated()
			prog, rep, d, err := compileOp(ctx, pr, tr, cp.bench.Name, cp.names[k], cp.srcs[k], cp.opts)
			m.op(cp.bench.Name, d, heapAllocated()-a0)
			busy += d
			if err == nil {
				err = checkPinned(cp.bench.Name, rep)
			}
			if err == nil {
				err = pr.check(prog, rep.Artifact)
				byProg[cp.bench.Name] = append(byProg[cp.bench.Name], compiled{prog, rep.Config})
			}
			tl.check(err)
		}
		return busy
	}

	if p.Trace {
		tr := &tracing{}
		untraced, traced := tracedPass(rounds(p.Measure, table2RoundCost), tr, round)
		cfgs := firstConfigs(byProg)
		var et engineTimes
		replayConfigs(cfgs, genTrace(probeTracePackets, p.Seed), &et, tl)
		compileLayers(res, tr, pr, &et, traced, untraced)
		return finish(res, tl), writeTrace(p, res.Workload, &tr.sink)
	}

	m := newMeasurement()
	start := time.Now()
	for r := 0; r == 0 || time.Since(start) < p.Measure; r++ {
		m.round(float64(len(progs)), round(r, nil, m))
	}
	// One seeded-sampled compile per program gets the full oracle:
	// exhaustive at width 5 where the input space fits, random probes at
	// the configuration's width either way.
	orng := newRand(p.Seed, 2)
	for i, pi := range orng.Perm(len(progs)) {
		if i >= w.Oracle {
			break
		}
		cs := byProg[progs[pi].bench.Name]
		if len(cs) == 0 {
			continue
		}
		c := cs[orng.Intn(len(cs))]
		var err error
		if d := difftest.CheckConfigEquivalence(c.prog, c.cfg, p.Seed); d != nil {
			err = fmt.Errorf("%s: %s", c.prog.Name, d)
		}
		tl.check(err)
	}
	res.Samples = m.lat.count()
	res.Metrics, res.Info = m.metrics(setups)
	return finish(res, tl), nil
}

// tracedPass runs n rounds untraced and then the same n rounds traced
// into tr, returning both wall times.
func tracedPass(n int, tr *tracing, round func(r int, tr *tracing, m *measurement) time.Duration) (untraced, traced time.Duration) {
	runtime.GC()
	t0 := time.Now()
	for r := 0; r < n; r++ {
		round(r, nil, newMeasurement())
	}
	untraced = time.Since(t0)
	runtime.GC()
	t0 = time.Now()
	for r := 0; r < n; r++ {
		round(r, tr, newMeasurement())
	}
	return untraced, time.Since(t0)
}

// firstConfigs picks each program's first compiled configuration, in
// program order.
func firstConfigs(byProg map[string][]compiled) []*pisa.Config {
	var cfgs []*pisa.Config
	for _, name := range sortedKeys(byProg) {
		if cs := byProg[name]; len(cs) > 0 && cs[0].cfg != nil {
			cfgs = append(cfgs, cs[0].cfg)
		}
	}
	return cfgs
}

// compileLayers fills a traced compile workload's per-layer metrics from
// its compile profiles, registries, prober and engine timings.
func compileLayers(res *Result, tr *tracing, pr *prober, et *engineTimes, traced, untraced time.Duration) {
	var total layerTimes
	for _, lt := range tr.layers {
		total.add(lt)
	}
	total.metrics(res.Metrics)
	tr.effort.metrics(res.Metrics)
	pr.layerMetrics(res.Metrics)
	et.layerMetrics(res.Metrics)
	serverShares(res.Metrics, nil)
	res.Metrics["bench.trace_overhead"] = ratio(traced.Seconds(), untraced.Seconds())
	res.Programs = programLayers(tr.layers)
}
