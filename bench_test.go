// Benchmarks regenerating the paper's evaluation artifacts, one bench per
// table and figure, plus ablations of Chipmunk's design choices. Custom
// metrics attach the non-time quantities each artifact reports:
//
//	BenchmarkTable2     — per-program Chipmunk code-generation time over
//	                      mutants (Table 2's time column) with success rate
//	                      and counterexample-iteration metrics, against
//	                      BenchmarkTable2Domino for the baseline column.
//	BenchmarkFigure5    — per-program resource usage (stages, max ALUs per
//	                      stage) for both compilers on the originals.
//	BenchmarkCEGIS      — the Figure 3 loop in isolation: iterations and
//	                      SAT conflicts per synthesis run.
//	BenchmarkAblation   — canonicalization (Figure 4), opcode-mask
//	                      restriction (§3.1), two-tier verification widths
//	                      (§3.1), and iterative deepening (Figure 5's
//	                      no-variance property).
//	BenchmarkSimulator  — packets/second through synthesized
//	                      configurations (the substrate's line-rate proxy).
//
// Run everything with:
//
//	go test -bench=. -benchmem
package chipmunk_test

import (
	"context"
	"testing"
	"time"

	chipmunk "repro"
	"repro/internal/alu"
	"repro/internal/cegis"
	"repro/internal/domino"
	"repro/internal/mutate"
	"repro/internal/pisa"
	"repro/internal/word"
	"repro/internal/workload"
)

func benchOptions(b chipmunk.Benchmark) chipmunk.Options {
	return chipmunk.Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: chipmunk.StatelessALU{ConstBits: b.ConstBits},
		StatefulALU:  chipmunk.StatefulALU{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         7,
	}
}

// BenchmarkTable2 measures Chipmunk code-generation time per benchmark
// program across its mutation set — the paper's Table 2 "Chipmunk time"
// column. The success-rate metric must stay at 1.0 (the 100% column).
func BenchmarkTable2(b *testing.B) {
	for _, bench := range chipmunk.Corpus() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog := bench.Parse()
			mutants := chipmunk.Mutate(prog, 10, 42)
			ok, total, iters := 0, 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := mutants[i%len(mutants)]
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				rep, err := chipmunk.Compile(ctx, m.Program, benchOptions(bench))
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				total++
				if rep.Feasible {
					ok++
				}
				for _, d := range rep.Depths {
					iters += d.Iters
				}
			}
			b.ReportMetric(float64(ok)/float64(total), "success-rate")
			b.ReportMetric(float64(iters)/float64(total), "cegis-iters/op")
		})
	}
}

// BenchmarkTable2Domino is the baseline column: compile time and success
// rate of the classical compiler over the same mutants.
func BenchmarkTable2Domino(b *testing.B) {
	for _, bench := range chipmunk.Corpus() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			mutants := chipmunk.Mutate(bench.Parse(), 10, 42)
			ok, total := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m := mutants[i%len(mutants)]
				res, err := chipmunk.CompileBaseline(m.Program, bench.StatefulALU, bench.ConstBits)
				if err != nil {
					b.Fatal(err)
				}
				total++
				if res.OK {
					ok++
				}
			}
			b.ReportMetric(float64(ok)/float64(total), "success-rate")
		})
	}
}

// BenchmarkFigure5 compiles each original with both compilers and attaches
// the figure's two metrics per bar: pipeline stages and max ALUs per stage.
func BenchmarkFigure5(b *testing.B) {
	for _, bench := range chipmunk.Corpus() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog := bench.Parse()
			var cu, du pisa.Usage
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				rep, err := chipmunk.Compile(ctx, prog, benchOptions(bench))
				cancel()
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Feasible {
					b.Fatal("original must compile")
				}
				cu = rep.Usage
				res, err := chipmunk.CompileBaseline(prog, bench.StatefulALU, bench.ConstBits)
				if err != nil || !res.OK {
					b.Fatalf("baseline must compile the original: %v %s", err, res.Reason)
				}
				du = res.Usage
			}
			b.ReportMetric(float64(cu.Stages), "chipmunk-stages")
			b.ReportMetric(float64(du.Stages), "domino-stages")
			b.ReportMetric(float64(cu.MaxALUsPerStage), "chipmunk-alus/stage")
			b.ReportMetric(float64(du.MaxALUsPerStage), "domino-alus/stage")
		})
	}
}

// minStages records each corpus program's minimal feasible pipeline depth
// (what iterative deepening settles on), so BenchmarkCEGIS measures the
// solve Chipmunk actually performs rather than an inflated-depth search.
var minStages = map[string]int{
	"rcp": 1, "stateful_fw": 1, "sampling": 1, "blue_increase": 1,
	"blue_decrease": 1, "flowlet": 1, "marple_new_flow": 1, "marple_reorder": 2,
}

// BenchmarkCEGIS isolates the Figure 3 loop at a fixed grid, reporting the
// iteration and SAT-conflict counts that dominate synthesis time.
func BenchmarkCEGIS(b *testing.B) {
	for _, bench := range chipmunk.Corpus() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog := bench.Parse()
			grid := pisa.GridSpec{
				Stages:       minStages[bench.Name],
				Width:        bench.Width,
				WordWidth:    10,
				StatelessALU: alu.Stateless{ConstBits: bench.ConstBits},
				StatefulALU:  alu.Stateful{Kind: bench.StatefulALU, ConstBits: bench.ConstBits},
			}
			var iters, conflicts int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cegis.SynthesizeOn(context.Background(), prog, pisa.Backend{Grid: grid}, grid.Stages, cegis.Options{Seed: 7})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Feasible {
					b.Fatal("must be feasible")
				}
				iters += int64(res.Iters)
				conflicts += res.SynthConflicts + res.VerifyConflicts
			}
			b.ReportMetric(float64(iters)/float64(b.N), "iters/op")
			b.ReportMetric(float64(conflicts)/float64(b.N), "sat-conflicts/op")
		})
	}
}

// BenchmarkAblation quantifies the design choices DESIGN.md calls out.
func BenchmarkAblation(b *testing.B) {
	sampling, _ := chipmunk.BenchmarkByName("sampling")

	// Figure 4: canonical vs indicator-variable packet-field allocation.
	b.Run("canonicalization/canonical", func(b *testing.B) {
		opts := benchOptions(sampling)
		runCompile(b, sampling, opts)
	})
	b.Run("canonicalization/indicator", func(b *testing.B) {
		opts := benchOptions(sampling)
		opts.IndicatorAlloc = true
		runCompile(b, sampling, opts)
	})

	// §3.1: restricting opcode holes "can sometimes speed up synthesis...
	// provided the program can be fully expressed using those opcodes".
	arith := chipmunk.MustParse("arith", "pkt.a = pkt.a + pkt.b; pkt.b = pkt.b - 3;")
	for name, mask := range map[string]uint32{"full": 0, "arith-only": alu.ArithOnlyMask} {
		mask := mask
		b.Run("opcode_restriction/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
				rep, err := chipmunk.Compile(ctx, arith, chipmunk.Options{
					Width:        2,
					MaxStages:    2,
					StatelessALU: chipmunk.StatelessALU{OpcodeMask: mask},
					StatefulALU:  chipmunk.StatefulALU{Kind: chipmunk.Counter},
					Seed:         7,
				})
				cancel()
				if err != nil || !rep.Feasible {
					b.Fatalf("must compile: %v", err)
				}
			}
		})
	}

	// §3.1 scaling: two-tier widths. Synthesis at narrow widths with
	// 10-bit verification versus single-tier synthesis at the full width.
	for _, sw := range []word.Width{4, 6, 8, 10} {
		sw := sw
		name := "two_tier/synth-width-" + string(rune('0'+sw/10)) + string(rune('0'+sw%10))
		b.Run(name, func(b *testing.B) {
			opts := benchOptions(sampling)
			opts.SynthWidth = sw
			runCompile(b, sampling, opts)
		})
	}

	// Iterative deepening vs direct synthesis at the stage budget: the
	// deepening run pays for infeasibility proofs but returns minimal
	// depth (Figure 5's no-variance bars).
	reorder, _ := chipmunk.BenchmarkByName("marple_reorder")
	b.Run("deepening/minimize", func(b *testing.B) {
		runCompile(b, reorder, benchOptions(reorder))
	})
	b.Run("deepening/fixed-max", func(b *testing.B) {
		opts := benchOptions(reorder)
		opts.FixedStages = true
		runCompile(b, reorder, opts)
	})
}

func mustExpr(b *testing.B, src string) chipmunk.Expr {
	b.Helper()
	e, err := chipmunk.ParseExpr(src)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

func runCompile(b *testing.B, bench chipmunk.Benchmark, opts chipmunk.Options) {
	b.Helper()
	prog := bench.Parse()
	var stages int
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		rep, err := chipmunk.Compile(ctx, prog, opts)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		if !rep.Feasible {
			b.Fatal("must compile")
		}
		stages = rep.Usage.Stages
	}
	b.ReportMetric(float64(stages), "stages")
}

// BenchmarkSimulator measures packet throughput of a synthesized
// configuration — the simulator-side cost of one packet per clock.
func BenchmarkSimulator(b *testing.B) {
	for _, name := range []string{"sampling", "flowlet"} {
		bench, _ := chipmunk.BenchmarkByName(name)
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		rep, err := chipmunk.Compile(ctx, bench.Parse(), benchOptions(bench))
		cancel()
		if err != nil || !rep.Feasible {
			b.Fatalf("setup compile failed: %v", err)
		}
		b.Run(name, func(b *testing.B) {
			pkt := map[string]uint64{}
			for _, f := range rep.Config.Fields {
				pkt[f] = 3
			}
			state := map[string]uint64{}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, state = rep.Config.Exec(pkt, state)
			}
		})
	}
}

// BenchmarkMutationGeneration covers the evaluation harness's other moving
// part.
func BenchmarkMutationGeneration(b *testing.B) {
	prog := chipmunk.MustParse("sampling", `
int count = 0;
if (count == 10) { count = 0; pkt.sample = 1; }
else { count = count + 1; pkt.sample = 0; }
`)
	for i := 0; i < b.N; i++ {
		if got := len(mutate.Generate(prog, 10, int64(i))); got == 0 {
			b.Fatal("no mutants")
		}
	}
}

// BenchmarkDominoBaseline measures the classical compiler's speed (Table 2
// notes Domino compiles in seconds; this reimplementation is far faster,
// but the point is the orders-of-magnitude gap to synthesis).
func BenchmarkDominoBaseline(b *testing.B) {
	for _, bench := range chipmunk.Corpus() {
		bench := bench
		b.Run(bench.Name, func(b *testing.B) {
			prog := bench.Parse()
			for i := 0; i < b.N; i++ {
				res, err := domino.Compile(prog, bench.StatefulALU, bench.ConstBits)
				if err != nil || !res.OK {
					b.Fatal("baseline must compile the original")
				}
			}
		})
	}
}

// --- Future-work extensions (§5) ------------------------------------------

// BenchmarkSuperopt measures the §5.1 superoptimizer on the paper's
// Figure 1 specification and a harder identity.
func BenchmarkSuperopt(b *testing.B) {
	for _, c := range []struct{ name, src string }{
		{"figure1_x5", "pkt.y = pkt.x * 5;"},
		{"or_plus_and", "pkt.r = (pkt.x | pkt.y) + (pkt.x & pkt.y);"},
	} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			prog := chipmunk.MustParse(c.name, c.src)
			var length int
			for i := 0; i < b.N; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
				res, err := chipmunk.Superoptimize(ctx, prog, chipmunk.SuperoptOptions{Seed: 1})
				cancel()
				if err != nil || !res.Feasible {
					b.Fatalf("superopt failed: %v", err)
				}
				length = res.Length
			}
			b.ReportMetric(float64(length), "instrs")
		})
	}
}

// BenchmarkApprox contrasts exact and approximate synthesis of the
// mask-AND program (§5.2): the approximate run fits a smaller grid.
func BenchmarkApprox(b *testing.B) {
	prog := chipmunk.MustParse("mask", "pkt.out = pkt.a & 7;")
	b.Run("exact-2-stages", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := chipmunk.SynthesizeApproximate(ctx, prog, chipmunk.GridSpec{
				Stages: 2, Width: 2, WordWidth: 10,
				StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.Counter},
			}, chipmunk.ApproxOptions{Seed: 3})
			cancel()
			if err != nil || !res.Feasible {
				b.Fatalf("exact synthesis failed: %v", err)
			}
		}
	})
	b.Run("approx-1-stage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			res, err := chipmunk.SynthesizeApproximate(ctx, prog, chipmunk.GridSpec{
				Stages: 1, Width: 2, WordWidth: 10,
				StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.Counter},
			}, chipmunk.ApproxOptions{Seed: 3, Care: mustExpr(b, "pkt.a >= 0 && pkt.a < 8")})
			cancel()
			if err != nil || !res.Feasible {
				b.Fatalf("approximate synthesis failed: %v", err)
			}
		}
	})
}

// BenchmarkRepair measures the §5.3 repair-hint search over rejected
// mutants of the sampling program.
func BenchmarkRepair(b *testing.B) {
	bench, _ := chipmunk.BenchmarkByName("sampling")
	var rejected []*chipmunk.Program
	for _, m := range chipmunk.Mutate(bench.Parse(), 10, 42) {
		res, err := chipmunk.CompileBaseline(m.Program, bench.StatefulALU, bench.ConstBits)
		if err == nil && !res.OK {
			rejected = append(rejected, m.Program)
		}
	}
	if len(rejected) == 0 {
		b.Skip("no rejected mutants at this seed")
	}
	repairedN, total := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog := rejected[i%len(rejected)]
		res, err := chipmunk.RepairProgram(prog, bench.StatefulALU, bench.ConstBits, chipmunk.RepairOptions{})
		if err != nil {
			b.Fatal(err)
		}
		total++
		if res.Repaired {
			repairedN++
		}
	}
	b.ReportMetric(float64(repairedN)/float64(total), "repair-rate")
}

// BenchmarkWorkload measures trace generation throughput.
func BenchmarkWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		trace := workload.Generate(workload.Spec{
			Flows: 64, Packets: 10000, ZipfS: 1.1, ReorderProb: 0.05, Seed: int64(i),
		})
		if len(trace) != 10000 {
			b.Fatal("short trace")
		}
	}
	b.ReportMetric(10000, "packets/op")
}

// BenchmarkEmit measures backend translation of a synthesized pipeline.
func BenchmarkEmit(b *testing.B) {
	bench, _ := chipmunk.BenchmarkByName("flowlet")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	rep, err := chipmunk.Compile(ctx, bench.Parse(), benchOptions(bench))
	cancel()
	if err != nil || !rep.Feasible {
		b.Fatalf("setup compile failed: %v", err)
	}
	b.Run("go", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chipmunk.EmitGo(rep.Config, 100, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("p4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := chipmunk.EmitP4(rep.Config); err != nil {
				b.Fatal(err)
			}
		}
	})
}
