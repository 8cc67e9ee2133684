package bench

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/perfhist"
	"repro/internal/programs"
)

// Plan fixes how one workload run is carried out.
type Plan struct {
	// Seed generates the workload's inputs: mutants, request streams and
	// traces. The compiler only ever receives the generated inputs.
	Seed int64
	// Measure is how long an untraced run keeps starting rounds (it
	// always completes at least one); a traced run derives the fixed size
	// of its pass from it, so its counters repeat exactly at a given seed.
	Measure time.Duration
	// Setups is how many times the run sets up; setup_s is their median.
	Setups int
	// Trace runs the traced pass (per-layer metrics) instead of the
	// measured one.
	Trace bool
	// Out is the directory a traced run writes its trace to.
	Out string
}

// Func runs one workload.
type Func func(context.Context, Plan) (*Result, error)

// Workloads maps each workload name to its full-size run.
func Workloads() map[string]Func {
	return map[string]Func{
		"table2":       Table2{Mutants: 32, Oracle: 8}.Run,
		"solver-bound": SolverBound{cases: solverCases}.Run,
		"daemon":       Daemon{Pool: 96}.Run,
		"replay":       Replay{Packets: 500_000, InterpPackets: 50_000}.Run,
	}
}

// rounds returns how many fixed-size rounds a traced pass runs: enough
// that the untraced and traced halves together take about measure, given
// one round's expected cost, and at least one.
func rounds(measure, roundCost time.Duration) int {
	return max(1, int(measure/(2*roundCost)))
}

// tracing is the per-operation instrumentation a traced pass installs: a
// fresh tracer and registry per operation, with a bench.op span around
// it, merged into one trace and one effort total, and the operation's
// compile profile split by layer under its corpus program. A nil
// *tracing installs nothing.
type tracing struct {
	sink   traceSink
	effort effort
	layers map[string]layerTimes
}

// op instruments one operation on program; call the returned func when
// it ends.
func (t *tracing) op(ctx context.Context, program string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	tr, reg := obs.NewTracer(), obs.NewRegistry()
	ctx = obs.ContextWithMetrics(obs.ContextWithTracer(ctx, tr), reg)
	ctx, span := obs.StartSpan(ctx, "bench.op", obs.String("program", program))
	return ctx, func() {
		span.End()
		recs := tr.Records()
		t.sink.add(recs)
		t.effort.addRegistry(reg)
		if p, err := obs.RollupCompile(recs); err == nil {
			if t.layers == nil {
				t.layers = map[string]layerTimes{}
			}
			lt := t.layers[program]
			lt.add(profileLayers(p, explainMS(recs)))
			t.layers[program] = lt
		}
	}
}

// compileOp is one measured compile: parse the source text, then compile
// it to a verdict. Its duration covers both.
func compileOp(ctx context.Context, pr *prober, tr *tracing, program, name, src string, opts core.Options) (*ast.Program, *core.Report, time.Duration, error) {
	ctx, done := tr.op(ctx, program)
	defer done()
	ctx, cancel := context.WithTimeout(ctx, compileTimeout)
	defer cancel()
	t0 := time.Now()
	_, ps := obs.StartSpan(ctx, "bench.parse")
	prog, err := pr.parse(name, src)
	ps.End()
	if err != nil {
		return nil, nil, time.Since(t0), fmt.Errorf("%s: parse: %w", name, err)
	}
	rep, err := core.Compile(ctx, prog, opts)
	return prog, rep, time.Since(t0), err
}

// corpusProg is one corpus program with its compile options, its compiled
// original, and its seeded mutants as printed source text.
type corpusProg struct {
	bench    programs.Benchmark
	opts     core.Options
	original *core.Report
	names    []string
	srcs     []string
}

// corpus parses every corpus program and prints up to mutants seeded
// mutants of each.
func corpus(pr *prober, tl *tally, mutants int, seed int64) []*corpusProg {
	var out []*corpusProg
	for _, b := range programs.Corpus() {
		cp := &corpusProg{bench: b, opts: corpusOptions(b)}
		prog, err := pr.parse(b.Name, b.Source)
		tl.check(err)
		if err == nil && mutants > 0 {
			for _, m := range mutate.Generate(prog, mutants, seed) {
				cp.names = append(cp.names, m.Program.Name)
				cp.srcs = append(cp.srcs, m.Program.Print())
			}
		}
		out = append(out, cp)
	}
	return out
}

// loadCorpus is the compile workloads' set-up: the corpus and its mutants,
// plus one compile of every original (checking the pinned verdict), which
// also warms the process before timing.
func loadCorpus(ctx context.Context, pr *prober, tr *tracing, tl *tally, mutants int, seed int64) []*corpusProg {
	progs := corpus(pr, tl, mutants, seed)
	for _, cp := range progs {
		b := cp.bench
		prog, rep, _, err := compileOp(ctx, pr, tr, b.Name, b.Name, b.Source, cp.opts)
		if err == nil {
			err = checkPinned(b.Name, rep)
		}
		if err == nil {
			err = pr.check(prog, rep.Artifact)
		}
		tl.check(err)
		cp.original = rep
	}
	return progs
}

// timeSetups runs setup n times (at least once) and returns each duration.
// Like testing.B, it collects garbage before each repetition and before
// returning, so no set-up or measurement starts in another's GC debt.
// release, if set, runs untimed before every repetition but the first and
// frees what the previous one built.
func timeSetups(n int, setup func() error, release func()) ([]time.Duration, error) {
	var ds []time.Duration
	for i := 0; i < max(1, n); i++ {
		if i > 0 && release != nil {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		ds = append(ds, time.Since(t0))
	}
	runtime.GC()
	return ds, nil
}

// newRand returns the workload's seeded generator; salt separates the
// streams one run draws from.
func newRand(seed, salt int64) *rand.Rand { return rand.New(rand.NewSource(seed*1_000_003 + salt)) }

// finish copies a tally into a result.
func finish(r *Result, tl *tally) *Result {
	r.Attempted, r.Failed, r.Failures = tl.attempted, tl.failed, tl.failures
	return r
}

// writeTrace writes a traced run's merged span stream to
// <out>/<workload>.trace.jsonl.
func writeTrace(p Plan, workload string, sink *traceSink) error {
	if p.Out == "" {
		return fmt.Errorf("bench: a traced run needs an output directory")
	}
	if err := os.MkdirAll(p.Out, 0o755); err != nil {
		return err
	}
	return sink.writeJSONL(filepath.Join(p.Out, workload+".trace.jsonl"))
}

// EnvelopeBench names the perfhist envelope of an untraced run; a traced
// run's layer file uses EnvelopeBench + ".layers".
const EnvelopeBench = "chipbench"

// WriteResult writes a run's perfhist envelope: <out>/<workload>.json for
// an untraced run (one row: the end-to-end metrics plus attempted, failed
// and fail_ratio), <out>/<workload>.layers.json for a traced one (a row of
// per-layer metrics, then one row per corpus program).
func WriteResult(out string, r *Result) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	row := map[string]any{
		"program":    r.Workload,
		"seed":       r.Seed,
		"attempted":  r.Attempted,
		"failed":     r.Failed,
		"fail_ratio": r.FailRatio(),
		"samples":    r.Samples,
	}
	for k, v := range r.Info {
		row[k] = v
	}
	for k, v := range r.Metrics {
		row[k] = v
	}
	if !r.Traced {
		return perfhist.WriteBenchFile(filepath.Join(out, r.Workload+".json"), EnvelopeBench, []any{row})
	}
	rows := []any{row}
	for _, p := range r.Programs {
		rows = append(rows, p)
	}
	return perfhist.WriteBenchFile(filepath.Join(out, r.Workload+".layers.json"), EnvelopeBench+".layers", rows)
}
