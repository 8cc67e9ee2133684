package difftest

import (
	"repro/internal/ast"
	"repro/internal/bpf"
	"repro/internal/core"
)

// bpfFuzzSlots is the fixed slot budget for random-scenario BPF compiles.
// Generated programs are tiny, and a fixed budget admits anything smaller
// (the ISA has a nop), while keeping the per-compile hole space bounded so
// timeouts stay rare enough for useful fuzz throughput.
const bpfFuzzSlots = 5

// bpfScenarioOptions builds the bpf-target core.Options for a random
// scenario: the same width/ALU draw as the grid compile, retargeted at the
// register machine with the fixed fuzz slot budget.
func bpfScenarioOptions(sc Scenario, seed int64) core.Options {
	opts := compileOptions(sc, seed)
	opts.Target = "bpf"
	opts.FixedStages = true
	opts.MaxStages = bpfFuzzSlots
	return opts
}

// CheckBPFConfigEquivalence is CheckConfigEquivalence for a register
// program. It predates the target-generic oracle; the bench module still
// calls it.
func CheckBPFConfigEquivalence(prog *ast.Program, cfg *bpf.Config, seed int64) *Discrepancy {
	return CheckConfigEquivalence(prog, cfg, seed)
}
