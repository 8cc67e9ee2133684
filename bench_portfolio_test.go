// BenchmarkPortfolio measures sequential iterative deepening against the
// parallel portfolio search per example program and emits a
// machine-readable BENCH_portfolio.json so the racing scheduler has a perf
// trajectory to compare against. Besides wall clock it records total
// solver conflicts (sequential vs. the portfolio's sum across members,
// wasted work included) — the price paid for the speedup — plus one cold
// sequential compile's effort counters.
//
// Smoke-run it on the quickstart example only:
//
//	go test -run '^$' -bench 'BenchmarkPortfolio/sampling' -benchtime 1x .
//
// The output path defaults to BENCH_portfolio.json in the package
// directory and can be overridden with CHIPMUNK_BENCH_OUT.
package chipmunk_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	chipmunk "repro"
	"repro/internal/alu"
	"repro/internal/parser"
	"repro/internal/perfhist"
)

// portfolioBenchCase is one example program: a corpus member (Source
// empty) or a crafted multi-stage program whose CEGIS solve is heavy
// enough for seed racing to pay off.
type portfolioBenchCase struct {
	Name      string
	Source    string
	Kind      alu.Kind
	ConstBits int
	Width     int
	MaxStages int
	Seed      int64 // base seed for crafted cases (corpus cases use benchOptions)
}

// portfolioBenchCases mixes fast single-stage corpus programs (which the
// frontier scheduler must not slow down) with crafted state-dependency
// chains whose heavy-tailed solves the seed hedges accelerate.
var portfolioBenchCases = []portfolioBenchCase{
	{Name: "sampling"},
	{Name: "stateful_fw"},
	{Name: "rcp"},
	{Name: "dep2", Source: "int s1 = 0; int s2 = 0; s2 = s1; s1 = s1 + pkt.x;",
		Kind: alu.PredRaw, ConstBits: 4, Width: 2, MaxStages: 3, Seed: 7},
	{Name: "chain3", Source: "int s1 = 0; int s2 = 0; int s3 = 0; s3 = s2; s2 = s1; s1 = s1 + pkt.x;",
		Kind: alu.PredRaw, ConstBits: 4, Width: 3, MaxStages: 4, Seed: 7},
	{Name: "chain3y", Source: "int s1 = 0; int s2 = 0; int s3 = 0; s3 = s2; s2 = s1; s1 = s1 - pkt.x;",
		Kind: alu.PredRaw, ConstBits: 4, Width: 3, MaxStages: 4, Seed: 3},
}

// Reps per mode; the min is kept. Order alternates (sequential first on
// even reps, portfolio first on odd) because on this box whichever
// compile runs second in a back-to-back pair pays a measurable cache/GC
// penalty — alternating keeps the two mins comparable. Millisecond-scale
// corpus compiles are far noisier relative to their runtime than the
// second-scale chains, so they get more reps.
const portfolioBenchReps = 5

func (c portfolioBenchCase) reps() int {
	if c.Source == "" {
		return 25
	}
	return portfolioBenchReps
}

type portfolioBenchRow struct {
	Program      string  `json:"program"`
	SequentialMS float64 `json:"sequential_ms"`
	PortfolioMS  float64 `json:"portfolio_ms"`
	// Speedup is sequential/portfolio wall clock (min over reps each).
	Speedup float64 `json:"speedup"`
	Stages  int     `json:"stages"`
	Winner  string  `json:"winner"`
	// Conflict totals: the portfolio number includes every raced member's
	// solver work (WastedConflicts is the losing share).
	SequentialConflicts int64 `json:"sequential_conflicts"`
	PortfolioConflicts  int64 `json:"portfolio_conflicts"`
	WastedConflicts     int64 `json:"wasted_conflicts"`
	// IdenticalWork is true when the portfolio burned exactly the
	// sequential schedule's conflicts with zero waste — the frontier
	// member resolved everything before any speculation started, so the
	// two modes did identical work and any wall-clock delta is
	// measurement noise (±5-10% at millisecond scale on the reference
	// box), not scheduling cost.
	IdenticalWork bool `json:"identical_work"`
	// Cold-compile effort: one sequential compile at the case seed.
	CexColdMS        float64 `json:"cex_cold_ms"`
	CexColdIters     int     `json:"cex_cold_iters"`
	CexColdConflicts int64   `json:"cex_cold_conflicts"`
}

func (c portfolioBenchCase) options() (*chipmunk.Program, chipmunk.Options, error) {
	if c.Source == "" {
		bench, err := chipmunk.BenchmarkByName(c.Name)
		if err != nil {
			return nil, chipmunk.Options{}, err
		}
		return bench.Parse(), benchOptions(bench), nil
	}
	prog, err := parser.Parse(c.Name, c.Source)
	if err != nil {
		return nil, chipmunk.Options{}, err
	}
	return prog, chipmunk.Options{
		Width:        c.Width,
		MaxStages:    c.MaxStages,
		StatelessALU: chipmunk.StatelessALU{ConstBits: c.ConstBits},
		StatefulALU:  chipmunk.StatefulALU{Kind: c.Kind, ConstBits: c.ConstBits},
		Seed:         c.Seed,
	}, nil
}

func BenchmarkPortfolio(b *testing.B) {
	var rows []portfolioBenchRow
	for _, c := range portfolioBenchCases {
		c := c
		b.Run(c.Name, func(b *testing.B) {
			prog, opts, err := c.options()
			if err != nil {
				b.Fatal(err)
			}
			// The test binary's live heap is tiny, so at the default GOGC=100
			// the next collection triggers a few MB into a compile. Both
			// modes allocate ~the same, but the portfolio's slightly larger
			// footprint (member contexts, spans, idle worker stacks) lands
			// just past the trigger where sequential stays just under:
			// measured on the reference box, the portfolio compile paid a
			// mid-compile GC on 15/15 reps versus 1/15 for sequential — a
			// deterministic ~0.4 ms tax that min-of-reps cannot average away.
			// Raising the target takes the pacer out of millisecond-scale
			// compiles entirely (0/15 GCs in either mode) so the benchmark
			// measures synthesis, not GC-trigger roulette.
			defer debug.SetGCPercent(debug.SetGCPercent(400))
			var row portfolioBenchRow
			for i := 0; i < b.N; i++ {
				row = portfolioBenchRow{Program: c.Name, SequentialMS: -1, PortfolioMS: -1}
				runOne := func(o chipmunk.Options) (*chipmunk.Report, time.Duration) {
					// Start each timed compile from a freshly collected
					// heap so neither mode inherits the other's GC-pacer
					// phase. (The heap-target boost below keeps the pacer
					// out of the timed region itself.)
					runtime.GC()
					ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
					defer cancel()
					t0 := time.Now()
					r, err := chipmunk.Compile(ctx, prog, o)
					d := time.Since(t0)
					if err != nil {
						b.Fatal(err)
					}
					return r, d
				}
				for rep := 0; rep < c.reps(); rep++ {
					par := opts
					par.Parallelism = 4
					par.SeedFanout = 2
					var srep, prep *chipmunk.Report
					var seqDur, parDur time.Duration
					if rep%2 == 0 {
						srep, seqDur = runOne(opts)
						prep, parDur = runOne(par)
					} else {
						prep, parDur = runOne(par)
						srep, seqDur = runOne(opts)
					}
					if !srep.Feasible {
						b.Fatalf("%s: sequential compile infeasible", c.Name)
					}
					if !prep.Feasible || prep.Usage.Stages != srep.Usage.Stages {
						b.Fatalf("%s: portfolio stages %d (feasible=%v), sequential %d — winner not at minimum depth",
							c.Name, prep.Usage.Stages, prep.Feasible, srep.Usage.Stages)
					}

					if ms := float64(seqDur.Microseconds()) / 1000; row.SequentialMS < 0 || ms < row.SequentialMS {
						row.SequentialMS = ms
						row.SequentialConflicts = srep.Effort().Conflicts
					}
					if ms := float64(parDur.Microseconds()) / 1000; row.PortfolioMS < 0 || ms < row.PortfolioMS {
						row.PortfolioMS = ms
						row.PortfolioConflicts = prep.Effort().Conflicts
						row.WastedConflicts = prep.WastedConflicts
						row.Winner = prep.Winner
						row.Stages = prep.Usage.Stages
					}
				}
				// One cold compile per iteration: the effort counters are
				// deterministic at a fixed seed, so a single run is enough.
				r, d := runOne(opts)
				if !r.Feasible {
					b.Fatalf("%s: cold compile infeasible", c.Name)
				}
				ef := r.Effort()
				row.CexColdMS, row.CexColdIters, row.CexColdConflicts = float64(d.Microseconds())/1000, ef.Iters, ef.Conflicts
				if row.PortfolioMS > 0 {
					row.Speedup = row.SequentialMS / row.PortfolioMS
				}
				row.IdenticalWork = row.PortfolioConflicts == row.SequentialConflicts &&
					row.WastedConflicts == 0
			}
			b.ReportMetric(row.SequentialMS, "seq-ms")
			b.ReportMetric(row.PortfolioMS, "portfolio-ms")
			b.ReportMetric(row.Speedup, "speedup")
			rows = append(rows, row)
		})
	}
	if len(rows) == 0 {
		return
	}
	out := benchOutPath("BENCH_portfolio.json")
	if err := perfhist.WriteBenchFile(out, "BenchmarkPortfolio", rows); err != nil {
		b.Fatal(err)
	}
	b.Logf("wrote %s", out)
}
