// Package chipmunk is the public API of this repository: a reproduction of
// "Autogenerating Fast Packet-Processing Code Using Program Synthesis"
// (Gao, Kim, Varma, Sivaraman, Narayana — HotNets 2019).
//
// Chipmunk compiles packet-processing programs written in the Domino
// language onto a simulated PISA switch pipeline using syntax-guided
// program synthesis: the pipeline's hardware configurations (ALU opcodes,
// mux controls, field and state allocations, immediate operands) are holes
// in a sketch that a CEGIS loop over a built-in SAT solver fills in, so any
// program whose semantics fit the hardware compiles — regardless of how it
// is written. The package also provides the classical rewrite-rule baseline
// (the Domino compiler) the paper evaluates against, the eight-program
// benchmark corpus, the semantics-preserving mutation generator, and the
// harness regenerating the paper's Table 2 and Figure 5.
//
// # Quick start
//
//	prog := chipmunk.MustParse("sampling", src)
//	rep, err := chipmunk.Compile(ctx, prog, chipmunk.Options{
//		Width:       2,
//		StatefulALU: chipmunk.StatefulALU{Kind: chipmunk.IfElseRaw},
//	})
//	if rep.Feasible {
//		pkt, state = rep.Config.Exec(pkt, state) // simulate the switch
//	}
//
// The deeper layers are importable individually for research use:
// internal/sat (CDCL solver), internal/circuit (bit-vector circuits and
// Tseitin CNF), internal/cegis (the synthesis loop), internal/pisa (the
// switch simulator), and internal/domino (the baseline compiler).
package chipmunk

import (
	"context"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/cegis"
	"repro/internal/core"
	"repro/internal/domino"
	"repro/internal/emit"
	"repro/internal/eval"
	"repro/internal/mutate"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/pisa"
	"repro/internal/programs"
	"repro/internal/repair"
	"repro/internal/server"
	"repro/internal/solcache"
	"repro/internal/superopt"
)

// Program is a parsed Domino packet transaction.
type Program = ast.Program

// Expr is a Domino expression, used e.g. for approximate synthesis's care
// predicate.
type Expr = ast.Expr

// Options configures a Chipmunk compilation (see core.Options).
type Options = core.Options

// Report is a compilation outcome, including the synthesized configuration
// and the Figure 5 resource usage.
type Report = core.Report

// Config is a synthesized PISA hardware configuration; Exec simulates one
// packet through the configured pipeline.
type Config = pisa.Config

// GridSpec describes the simulated switch grid.
type GridSpec = pisa.GridSpec

// Usage reports stages and ALUs consumed by a configuration.
type Usage = pisa.Usage

// StatefulALU selects a stateful ALU template and immediate width.
type StatefulALU = alu.Stateful

// StatelessALU configures the Banzai-style stateless ALU.
type StatelessALU = alu.Stateless

// Stateful ALU template kinds (the Banzai atom menu).
const (
	Counter   = alu.Counter
	PredRaw   = alu.PredRaw
	IfElseRaw = alu.IfElseRaw
	SubALU    = alu.Sub
	NestedIfs = alu.NestedIfs
	PairALU   = alu.Pair
)

// Benchmark is one corpus entry of the paper's evaluation.
type Benchmark = programs.Benchmark

// Mutant is a semantics-preserving program mutation.
type Mutant = mutate.Mutant

// BaselineResult is the Domino baseline's compilation outcome.
type BaselineResult = domino.Result

// Parse parses Domino source into a Program.
func Parse(name, src string) (*Program, error) { return parser.Parse(name, src) }

// MustParse is Parse for known-good sources; it panics on error.
func MustParse(name, src string) *Program { return parser.MustParse(name, src) }

// ParseExpr parses a standalone Domino expression (e.g. a care predicate).
func ParseExpr(src string) (Expr, error) { return parser.ParseExpr(src) }

// Compile runs the Chipmunk synthesis-based code generator. Bound its
// runtime with the context; an expired context yields Report.TimedOut.
func Compile(ctx context.Context, prog *Program, opts Options) (*Report, error) {
	return core.Compile(ctx, prog, opts)
}

// CompileBaseline runs the classical Domino compiler against the given
// stateful ALU template, returning its placement or rejection reason.
func CompileBaseline(prog *Program, kind alu.Kind, constBits int) (*BaselineResult, error) {
	return domino.Compile(prog, kind, constBits)
}

// Corpus returns the paper's eight benchmark programs.
func Corpus() []Benchmark { return programs.Corpus() }

// BenchmarkByName returns one corpus entry.
func BenchmarkByName(name string) (Benchmark, error) { return programs.ByName(name) }

// Mutate generates n semantics-preserving mutants of a program,
// deterministically from seed.
func Mutate(prog *Program, n int, seed int64) []Mutant {
	return mutate.Generate(prog, n, seed)
}

// EvalOptions configures an evaluation run over the corpus.
type EvalOptions = eval.Options

// MutantOutcome is one mutant's result under both compilers.
type MutantOutcome = eval.MutantOutcome

// Evaluate compiles every mutant of every corpus program with both
// compilers — the raw data behind Table 2 and Figure 5. Aggregate with
// eval.Table2 / eval.Figure5 or this package's Table2/Figure5.
func Evaluate(ctx context.Context, opts EvalOptions) ([]MutantOutcome, error) {
	return eval.Run(ctx, opts)
}

// Table2 renders the paper's Table 2 from evaluation outcomes.
func Table2(outcomes []MutantOutcome) string {
	return eval.RenderTable2(eval.Table2(outcomes))
}

// Figure5 renders the paper's Figure 5 data from evaluation outcomes.
func Figure5(outcomes []MutantOutcome) string {
	return eval.RenderFigure5(eval.Figure5(outcomes))
}

// --- Observability ----------------------------------------------------------

// Tracer collects a hierarchical span trace of the synthesis pipeline
// (compile → attempt → CEGIS iteration → phase → SAT solve, plus
// sat.progress notes inside long solves). Install one into the context
// passed to Compile with WithTracer, then export with WriteJSONL (JSONL)
// or Summary (indented tree), or watch it live with Subscribe.
type Tracer = obs.Tracer

// Metrics is a registry of named counters, gauges and histograms the
// pipeline populates (sat.conflicts, cegis.iterations, cnf.vars, ...).
// Install with WithMetrics; it is safe to share across concurrent compiles.
type Metrics = obs.Registry

// Effort summarizes a compilation's solver work (Report.Effort).
type Effort = core.Effort

// NewTracer returns an empty span tracer.
func NewTracer() *Tracer { return obs.NewTracer() }

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// WithTracer returns a context that records synthesis spans into tr.
func WithTracer(ctx context.Context, tr *Tracer) context.Context {
	return obs.ContextWithTracer(ctx, tr)
}

// WithMetrics returns a context that accumulates pipeline metrics into m.
func WithMetrics(ctx context.Context, m *Metrics) context.Context {
	return obs.ContextWithMetrics(ctx, m)
}

// --- Compilation as a service ----------------------------------------------

// SolutionCache memoizes compilation results by canonical problem
// fingerprint (internal/solcache): warm hits skip CEGIS entirely, and
// concurrent compilations of the same canonical program share one
// synthesis run. Attach one via Options.Cache; it is safe to share across
// goroutines.
type SolutionCache = solcache.Cache

// CacheOption configures a SolutionCache.
type CacheOption = solcache.Option

// NewSolutionCache returns a cache holding at most capacity solutions
// (<= 0 means solcache.DefaultCapacity).
func NewSolutionCache(capacity int, opts ...CacheOption) *SolutionCache {
	return solcache.New(capacity, opts...)
}

// CacheWithPersistPath persists the cache to a JSON file across runs, with
// versioned invalidation.
func CacheWithPersistPath(path string) CacheOption {
	return solcache.WithPersistPath(path)
}

// ServerConfig configures an embedded compile service (see cmd/chipmunkd
// for the standalone daemon).
type ServerConfig = server.Config

// CompileServer is the compilation-as-a-service subsystem: an HTTP job API
// over a bounded queue and worker pool. Serve its Handler(); stop with
// Shutdown (graceful drain).
type CompileServer = server.Server

// NewCompileServer builds a compile service and starts its worker pool.
func NewCompileServer(cfg ServerConfig) *CompileServer { return server.New(cfg) }

// RemoteClient is a thin client for a chipmunkd daemon (the transport
// behind `chipmunk -remote`).
type RemoteClient = server.Client

// CompileRequest is the wire form of a remote compilation job.
type CompileRequest = server.CompileRequest

// JobStatus is the wire form of a remote job's state and result.
type JobStatus = server.JobStatus

// NewRemoteClient targets a chipmunkd daemon at base, e.g.
// "http://localhost:8926".
func NewRemoteClient(base string) *RemoteClient { return server.NewClient(base) }

// --- The paper's §5 future-work directions, implemented --------------------

// SuperoptOptions configures the §5.1 superoptimizer.
type SuperoptOptions = superopt.Options

// SuperoptResult reports a superoptimization run; Seq is the minimal
// instruction sequence found.
type SuperoptResult = superopt.Result

// Superoptimize searches for a minimal instruction sequence implementing a
// stateless packet transaction on a small processor ISA (§5.1,
// "Synthesizing Fast Processor Code").
func Superoptimize(ctx context.Context, prog *Program, opts SuperoptOptions) (*SuperoptResult, error) {
	return superopt.Superoptimize(ctx, prog, opts)
}

// ApproxOptions configures §5.2 approximate synthesis: the CEGIS options,
// with Care set to a Domino expression describing the inputs whose
// behaviour matters.
type ApproxOptions = cegis.Options

// ApproxResult reports an approximate-synthesis run.
type ApproxResult = cegis.Result

// SynthesizeApproximate fits a program onto a grid requiring correctness
// only on inputs satisfying the care predicate (§5.2, "Approximate Program
// Synthesis") — trading accuracy for stages and ALUs.
func SynthesizeApproximate(ctx context.Context, prog *Program, grid GridSpec, opts ApproxOptions) (*ApproxResult, error) {
	return cegis.SynthesizeOn(ctx, prog, pisa.Backend{Grid: grid}, grid.Stages, opts)
}

// RepairOptions bounds the §5.3 repair-hint search.
type RepairOptions = repair.Options

// RepairResult carries the rewrite hints that make the baseline accept a
// rejected program.
type RepairResult = repair.Result

// RepairProgram searches for small semantics-preserving rewrites after
// which the classical Domino compiler accepts the program (§5.3,
// "Synthesizing Program Repairs").
func RepairProgram(prog *Program, kind alu.Kind, constBits int, opts RepairOptions) (*RepairResult, error) {
	return repair.Repair(prog, kind, constBits, opts)
}

// EmitGo translates a synthesized configuration into a standalone Go
// program (the backend translator of §3.1's Limitations). The emitted
// main() pushes `packets` deterministic pseudo-random packets through the
// pipeline and prints one CSV line each.
func EmitGo(cfg *Config, packets int, seed uint64) (string, error) {
	return emit.Go(cfg, packets, seed)
}

// EmitP4 renders a synthesized configuration as a P4-16-flavored program.
func EmitP4(cfg *Config) (string, error) {
	return emit.P4(cfg)
}
