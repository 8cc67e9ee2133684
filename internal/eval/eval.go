// Package eval regenerates the paper's evaluation (§4): Table 2 (code
// generation rate and time for Chipmunk and Domino over 8 programs × 10
// semantics-preserving mutations) and Figure 5 (pipeline stages and maximum
// ALUs per stage when both compilers succeed).
//
// The harness is deterministic given a seed: the same mutants are generated
// and the same CEGIS search runs every time. Compilations run in parallel
// across worker goroutines (each compilation itself is single-threaded), so
// wall-clock time per mutant is measured inside the worker.
package eval

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/alu"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/solcache"
)

// Options configures an evaluation run.
type Options struct {
	// Mutants per program (the paper uses 10). 0 means 10.
	Mutants int
	// Seed drives mutation generation and CEGIS test inputs.
	Seed int64
	// Timeout bounds each Chipmunk compilation (the paper's runs also
	// timed out on some flowlet mutations). 0 means 120s.
	Timeout time.Duration
	// Parallel is the number of concurrent compilations. 0 means
	// GOMAXPROCS.
	Parallel int
	// SeedFanout hedges each compilation's depths across this many CEGIS
	// seeds (core.Options.SeedFanout). Combine with Parallel
	// thoughtfully: a heavy-tailed compile runs up to SeedFanout attempts
	// at once.
	SeedFanout int
	// Programs restricts the corpus (empty = all 8).
	Programs []string
	// Metrics, when non-nil, accumulates solver-effort counters across
	// every compilation (workers share the registry; it is race-safe).
	Metrics *obs.Registry
	// TraceDir, when non-empty, writes one JSONL span trace per mutant
	// compilation into the directory as <program>_m<index>.jsonl.
	TraceDir string
	// Cache, when non-nil, memoizes compilation results by canonical
	// problem fingerprint: mutants that canonicalize identically (and
	// repeat sweeps over the same corpus) share one CEGIS run. Workers
	// share the cache; it is race-safe.
	Cache *solcache.Cache
	// BPF additionally compiles each mutant for the bpf register-machine
	// target at the hand-worked per-program slot budgets (bpfBudgets),
	// adding per-target columns to Table 2 and the CSV so PISA and BPF
	// feasibility/effort can be compared on the same corpus. Programs
	// without a worked-out budget report the BPF target as not attempted.
	BPF bool
	// Explain runs the infeasibility-forensics pass (core.Options.Explain)
	// on mutants whose compile concludes infeasible, recording each
	// target's binding resource dimension in the CSV infeasibility
	// columns. Feasible and timed-out mutants are unaffected.
	Explain bool
}

func (o *Options) mutants() int {
	if o.Mutants == 0 {
		return 10
	}
	return o.Mutants
}

func (o *Options) timeout() time.Duration {
	if o.Timeout == 0 {
		return 120 * time.Second
	}
	return o.Timeout
}

func (o *Options) parallel() int {
	if o.Parallel == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

func (o *Options) corpus() ([]programs.Benchmark, error) {
	all := programs.Corpus()
	if len(o.Programs) == 0 {
		return all, nil
	}
	var out []programs.Benchmark
	for _, name := range o.Programs {
		b, err := programs.ByName(name)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	_ = all
	return out, nil
}

// MutantOutcome is one mutant's result under both compilers.
type MutantOutcome struct {
	Program string
	Index   int
	Ops     []mutate.Op

	ChipmunkOK      bool
	ChipmunkTimeout bool
	ChipmunkTime    time.Duration
	ChipmunkUsage   pisa.Usage
	// ChipmunkEffort records the compilation's solver effort (CEGIS
	// iterations, SAT conflicts, peak CNF size) for the CSV effort columns.
	ChipmunkEffort core.Effort

	// ChipmunkInfeasibleDim names the binding resource dimension (a
	// core.Dim* constant) when the mutant was infeasible and forensics ran
	// (Options.Explain); empty otherwise.
	ChipmunkInfeasibleDim string

	DominoOK     bool
	DominoReason string
	DominoTime   time.Duration
	DominoUsage  pisa.Usage

	// BPF target (Options.BPF). BPFRan is false when the target was not
	// requested or the program has no hand-worked slot budget; BPFInstrs
	// is the live (non-nop) instruction count of the synthesized program.
	BPFRan     bool
	BPFOK      bool
	BPFTimeout bool
	BPFTime    time.Duration
	BPFInstrs  int
	BPFEffort  core.Effort
	// BPFInfeasibleDim mirrors ChipmunkInfeasibleDim for the bpf target.
	BPFInfeasibleDim string
}

// reorderMask restricts marple_reorder's opcode vocabulary to the lean ISA
// a reorder detector needs (the select idiom plus map ops) — on the full
// ISA this benchmark's search does not converge in eval time. Mirrors the
// difftest acceptance table.
var reorderMask = uint32(1)<<bpf.OpNop | 1<<bpf.OpMov | 1<<bpf.OpAdd |
	1<<bpf.OpSub | 1<<bpf.OpMul | 1<<bpf.OpLt | 1<<bpf.OpLdMap | 1<<bpf.OpStMap

// bpfBudgets are hand-worked slot budgets (and, where needed, opcode
// vocabulary restrictions) for the corpus programs whose register-program
// encodings synthesize in eval time. Mutations are semantics-preserving
// and the sketch depends only on variable counts and semantics, so a
// budget worked out for the source program is valid for its mutants.
var bpfBudgets = map[string]struct {
	Slots int
	Mask  uint32
}{
	"marple_new_flow": {Slots: 5},
	"stateful_fw":     {Slots: 6},
	"marple_reorder":  {Slots: 7, Mask: reorderMask},
	"sampling":        {Slots: 8},
}

// Run compiles every mutant of every selected program with both compilers
// and returns the raw outcomes, which Table2 and Figure5 aggregate.
func Run(ctx context.Context, opts Options) ([]MutantOutcome, error) {
	corpus, err := opts.corpus()
	if err != nil {
		return nil, err
	}

	type job struct {
		bench  programs.Benchmark
		mutant mutate.Mutant
		index  int
	}
	var jobs []job
	for _, b := range corpus {
		prog := b.Parse()
		muts := mutate.Generate(prog, opts.mutants(), opts.Seed+programSeed(b.Name))
		for i, m := range muts {
			jobs = append(jobs, job{bench: b, mutant: m, index: i})
		}
	}

	outcomes := make([]MutantOutcome, len(jobs))
	traceErrs := make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, opts.parallel())
	for i, j := range jobs {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i], traceErrs[i] = compileBoth(ctx, j.bench, j.mutant, j.index, opts)
		}(i, j)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return outcomes, err
	}
	return outcomes, errors.Join(traceErrs...)
}

// programSeed derives a per-program offset for the mutation stream from an
// FNV-1a hash of the program name. The previous derivation
// (len(name)*7919) collided for same-length names — blue_increase and
// blue_decrease received identical seeds and therefore structurally
// parallel mutant sets. The offset is masked positive so adding it to a
// user seed cannot overflow surprisingly.
func programSeed(name string) int64 {
	h := fnv.New64a()
	io.WriteString(h, name)
	return int64(h.Sum64() & (1<<62 - 1))
}

// compileBoth compiles one mutant with both compilers. The error reports
// only a failure to write the mutant's span trace (Options.TraceDir).
func compileBoth(ctx context.Context, b programs.Benchmark, m mutate.Mutant, idx int, opts Options) (out MutantOutcome, traceErr error) {
	out = MutantOutcome{Program: b.Name, Index: idx, Ops: m.Applied}

	// Domino baseline.
	dres, err := domino.Compile(m.Program, b.StatefulALU, b.ConstBits)
	if err == nil {
		out.DominoOK = dres.OK
		out.DominoReason = dres.Reason
		out.DominoTime = dres.Elapsed
		if dres.OK {
			out.DominoUsage = dres.Usage
		}
	}

	// Chipmunk.
	cctx, cancel := context.WithTimeout(ctx, opts.timeout())
	defer cancel()
	if opts.Metrics != nil {
		cctx = obs.ContextWithMetrics(cctx, opts.Metrics)
	}
	if opts.TraceDir != "" {
		tr := obs.NewTracer()
		cctx = obs.ContextWithTracer(cctx, tr)
		defer func() {
			traceErr = writeTrace(tr, filepath.Join(opts.TraceDir, fmt.Sprintf("%s_m%02d.jsonl", b.Name, idx)))
		}()
	}
	rep, err := core.Compile(cctx, m.Program, core.Options{
		Width:        b.Width,
		MaxStages:    b.MaxStages,
		StatelessALU: alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:  alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:         opts.Seed + int64(idx),
		SeedFanout:   opts.SeedFanout,
		Cache:        opts.Cache,
		Explain:      opts.Explain,
	})
	if err == nil {
		out.ChipmunkOK = rep.Feasible
		out.ChipmunkTimeout = rep.TimedOut
		out.ChipmunkTime = rep.Elapsed
		out.ChipmunkEffort = rep.Effort()
		if rep.Feasible {
			out.ChipmunkUsage = rep.Usage
		}
		if rep.Explanation != nil {
			out.ChipmunkInfeasibleDim = rep.Explanation.Dimension
		}
	}

	// BPF register-machine target (opt-in): same frontend program, same
	// ALU immediates, retargeted at the hand-worked slot budget.
	if bb, known := bpfBudgets[b.Name]; opts.BPF && known {
		bctx, bcancel := context.WithTimeout(ctx, opts.timeout())
		defer bcancel()
		brep, berr := core.Compile(bctx, m.Program, core.Options{
			Target:        "bpf",
			MaxStages:     bb.Slots,
			FixedStages:   true,
			BPFOpcodeMask: bb.Mask,
			StatelessALU:  alu.Stateless{ConstBits: b.ConstBits},
			StatefulALU:   alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
			Seed:          opts.Seed + int64(idx),
			Cache:         opts.Cache,
			Explain:       opts.Explain,
		})
		if berr == nil {
			out.BPFRan = true
			out.BPFOK = brep.Feasible
			out.BPFTimeout = brep.TimedOut
			out.BPFTime = brep.Elapsed
			out.BPFEffort = brep.Effort()
			if cfg, isBPF := brep.Artifact.(*bpf.Config); isBPF && brep.Feasible {
				out.BPFInstrs = cfg.LiveInstrs()
			}
			if brep.Explanation != nil {
				out.BPFInfeasibleDim = brep.Explanation.Dimension
			}
		}
	}
	return out, nil
}

// writeTrace writes tr's records to a new JSONL file at path.
func writeTrace(tr *obs.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(f); err != nil {
		f.Close()
		return fmt.Errorf("eval: writing %s: %w", path, err)
	}
	return f.Close()
}

// --- Table 2 -------------------------------------------------------------------

// Table2Row aggregates one program's Table 2 entry.
type Table2Row struct {
	Program          string
	Mutants          int
	ChipmunkRate     float64 // fraction of mutants Chipmunk compiles
	DominoRate       float64
	ChipmunkTimeouts int
	ChipmunkMeanTime time.Duration
	ChipmunkMaxTime  time.Duration
	DominoMeanTime   time.Duration
	// Solver-effort totals across the program's mutants.
	ChipmunkIters     int
	ChipmunkConflicts int64
	PeakCNFVars       int
	// BPF per-target column (Options.BPF): mutants attempted on the
	// register machine, their success rate, and mean synthesis time.
	BPFAttempts int
	BPFRate     float64
	BPFTimeouts int
	BPFMeanTime time.Duration
}

// Table2 aggregates outcomes into the paper's Table 2 rows, in corpus
// order.
func Table2(outcomes []MutantOutcome) []Table2Row {
	byProg := map[string][]MutantOutcome{}
	for _, o := range outcomes {
		byProg[o.Program] = append(byProg[o.Program], o)
	}
	var rows []Table2Row
	for _, name := range programs.Names() {
		os := byProg[name]
		if len(os) == 0 {
			continue
		}
		row := Table2Row{Program: name, Mutants: len(os)}
		var cOK, dOK, bOK int
		var cSum, dSum, bSum time.Duration
		for _, o := range os {
			if o.ChipmunkOK {
				cOK++
			}
			if o.ChipmunkTimeout {
				row.ChipmunkTimeouts++
			}
			if o.DominoOK {
				dOK++
			}
			if o.BPFRan {
				row.BPFAttempts++
				bSum += o.BPFTime
				if o.BPFOK {
					bOK++
				}
				if o.BPFTimeout {
					row.BPFTimeouts++
				}
			}
			cSum += o.ChipmunkTime
			dSum += o.DominoTime
			if o.ChipmunkTime > row.ChipmunkMaxTime {
				row.ChipmunkMaxTime = o.ChipmunkTime
			}
			row.ChipmunkIters += o.ChipmunkEffort.Iters
			row.ChipmunkConflicts += o.ChipmunkEffort.Conflicts
			if o.ChipmunkEffort.PeakCNFVars > row.PeakCNFVars {
				row.PeakCNFVars = o.ChipmunkEffort.PeakCNFVars
			}
		}
		row.ChipmunkRate = float64(cOK) / float64(len(os))
		row.DominoRate = float64(dOK) / float64(len(os))
		row.ChipmunkMeanTime = cSum / time.Duration(len(os))
		row.DominoMeanTime = dSum / time.Duration(len(os))
		if row.BPFAttempts > 0 {
			row.BPFRate = float64(bOK) / float64(row.BPFAttempts)
			row.BPFMeanTime = bSum / time.Duration(row.BPFAttempts)
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderTable2 formats rows in the layout of the paper's Table 2. When any
// row carries BPF outcomes (Options.BPF), per-target columns are appended
// so PISA and register-machine feasibility/time sit side by side; rows
// whose program has no worked-out slot budget show "-".
func RenderTable2(rows []Table2Row) string {
	hasBPF := false
	for _, r := range rows {
		if r.BPFAttempts > 0 {
			hasBPF = true
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-18s %10s %10s %14s %14s %9s",
		"Program", "Chipmunk", "Domino", "Chip mean(s)", "Chip max(s)", "timeouts")
	if hasBPF {
		fmt.Fprintf(&sb, " %10s %13s", "BPF", "BPF mean(s)")
	}
	sb.WriteByte('\n')
	var iters int
	var conflicts int64
	peak := 0
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %9.0f%% %9.0f%% %14.3f %14.3f %9d",
			r.Program, r.ChipmunkRate*100, r.DominoRate*100,
			r.ChipmunkMeanTime.Seconds(), r.ChipmunkMaxTime.Seconds(), r.ChipmunkTimeouts)
		if hasBPF {
			if r.BPFAttempts > 0 {
				fmt.Fprintf(&sb, " %9.0f%% %13.3f", r.BPFRate*100, r.BPFMeanTime.Seconds())
			} else {
				fmt.Fprintf(&sb, " %10s %13s", "-", "-")
			}
		}
		sb.WriteByte('\n')
		iters += r.ChipmunkIters
		conflicts += r.ChipmunkConflicts
		if r.PeakCNFVars > peak {
			peak = r.PeakCNFVars
		}
	}
	fmt.Fprintf(&sb, "solver effort: %d CEGIS iterations, %d SAT conflicts, peak CNF %d vars\n",
		iters, conflicts, peak)
	return sb.String()
}

// --- Figure 5 ------------------------------------------------------------------

// Series summarizes a metric across mutants: mean with min/max error bars
// (the paper plots Domino with error bars and notes Chipmunk has none).
type Series struct {
	Mean     float64
	Min, Max int
}

func newSeries(xs []int) Series {
	if len(xs) == 0 {
		return Series{}
	}
	s := Series{Min: xs[0], Max: xs[0]}
	total := 0
	for _, x := range xs {
		total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = float64(total) / float64(len(xs))
	return s
}

// Variance reports the error-bar spread.
func (s Series) Variance() int { return s.Max - s.Min }

// Figure5Row is one program's bar group in Figure 5: resource usage of the
// two compilers over mutants where both succeeded.
type Figure5Row struct {
	Program string
	// Both counts mutants where both compilers generated code.
	Both int
	// Stage usage (left plot of Figure 5).
	ChipmunkStages Series
	DominoStages   Series
	// Max ALUs per stage (right plot).
	ChipmunkALUs Series
	DominoALUs   Series
}

// Figure5 aggregates outcomes into the Figure 5 bar groups.
func Figure5(outcomes []MutantOutcome) []Figure5Row {
	byProg := map[string][]MutantOutcome{}
	for _, o := range outcomes {
		byProg[o.Program] = append(byProg[o.Program], o)
	}
	var rows []Figure5Row
	for _, name := range programs.Names() {
		os := byProg[name]
		if len(os) == 0 {
			continue
		}
		var cs, ds, ca, da []int
		both := 0
		for _, o := range os {
			if !o.ChipmunkOK || !o.DominoOK {
				continue
			}
			both++
			cs = append(cs, o.ChipmunkUsage.Stages)
			ds = append(ds, o.DominoUsage.Stages)
			ca = append(ca, o.ChipmunkUsage.MaxALUsPerStage)
			da = append(da, o.DominoUsage.MaxALUsPerStage)
		}
		rows = append(rows, Figure5Row{
			Program:        name,
			Both:           both,
			ChipmunkStages: newSeries(cs),
			DominoStages:   newSeries(ds),
			ChipmunkALUs:   newSeries(ca),
			DominoALUs:     newSeries(da),
		})
	}
	return rows
}

// RenderFigure5 formats the Figure 5 data as two text "plots" with
// mean [min,max] bars.
func RenderFigure5(rows []Figure5Row) string {
	var sb strings.Builder
	sb.WriteString("Pipeline stages used (mean [min,max] over mutants where both succeed)\n")
	fmt.Fprintf(&sb, "%-18s %6s %20s %20s\n", "Program", "both", "Chipmunk", "Domino")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %6d %20s %20s\n", r.Program, r.Both,
			renderSeries(r.ChipmunkStages), renderSeries(r.DominoStages))
	}
	sb.WriteString("\nMax ALUs per stage (mean [min,max])\n")
	fmt.Fprintf(&sb, "%-18s %6s %20s %20s\n", "Program", "both", "Chipmunk", "Domino")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-18s %6d %20s %20s\n", r.Program, r.Both,
			renderSeries(r.ChipmunkALUs), renderSeries(r.DominoALUs))
	}
	return sb.String()
}

func renderSeries(s Series) string {
	return fmt.Sprintf("%.1f [%d,%d]", s.Mean, s.Min, s.Max)
}

// CSVHeader is the exact column list CSV emits. External plotting scripts
// key on these names, so the header is pinned by test: adding a column means
// updating the pin deliberately, and existing columns must never move.
const CSVHeader = "program,mutant,ops,chipmunk_ok,chipmunk_timeout,chipmunk_ms,chipmunk_stages,chipmunk_max_alus,chipmunk_iters,chipmunk_conflicts,chipmunk_decisions,chipmunk_propagations,chipmunk_peak_cnf_vars,chipmunk_infeasible_dim,domino_ok,domino_ms,domino_stages,domino_max_alus,bpf_ran,bpf_ok,bpf_timeout,bpf_ms,bpf_instrs,bpf_iters,bpf_conflicts,bpf_infeasible_dim,domino_reason"

// CSV renders outcomes as a flat CSV for external plotting.
func CSV(outcomes []MutantOutcome) string {
	var sb strings.Builder
	sb.WriteString(CSVHeader + "\n")
	sorted := append([]MutantOutcome{}, outcomes...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Program != sorted[j].Program {
			return sorted[i].Program < sorted[j].Program
		}
		return sorted[i].Index < sorted[j].Index
	})
	for _, o := range sorted {
		ops := make([]string, len(o.Ops))
		for i, op := range o.Ops {
			ops[i] = string(op)
		}
		fmt.Fprintf(&sb, "%s,%d,%s,%t,%t,%.1f,%d,%d,%d,%d,%d,%d,%d,%s,%t,%.3f,%d,%d,%t,%t,%t,%.1f,%d,%d,%d,%s,%q\n",
			o.Program, o.Index, strings.Join(ops, "+"),
			o.ChipmunkOK, o.ChipmunkTimeout, float64(o.ChipmunkTime.Microseconds())/1000,
			o.ChipmunkUsage.Stages, o.ChipmunkUsage.MaxALUsPerStage,
			o.ChipmunkEffort.Iters, o.ChipmunkEffort.Conflicts,
			o.ChipmunkEffort.Decisions, o.ChipmunkEffort.Propagations,
			o.ChipmunkEffort.PeakCNFVars, o.ChipmunkInfeasibleDim,
			o.DominoOK, float64(o.DominoTime.Microseconds())/1000,
			o.DominoUsage.Stages, o.DominoUsage.MaxALUsPerStage,
			o.BPFRan, o.BPFOK, o.BPFTimeout, float64(o.BPFTime.Microseconds())/1000,
			o.BPFInstrs, o.BPFEffort.Iters, o.BPFEffort.Conflicts,
			o.BPFInfeasibleDim, o.DominoReason)
	}
	return sb.String()
}
