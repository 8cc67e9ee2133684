package difftest

import (
	"context"
	"testing"
	"time"

	"repro/internal/alu"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/programs"
)

// bpfBudget pairs a corpus program with a hand-worked slot budget: the
// instruction count a human eBPF developer would need on this machine
// (worked out by writing each program by hand, as the bpf package's
// hand-written sampling test does for one of them).
type bpfBudget struct {
	name  string
	slots int
	seed  int64
	// mask restricts the machine's opcode vocabulary for this benchmark
	// (0 = full ISA) — the register-machine analogue of the paper picking
	// a per-benchmark stateful ALU template: the machine description is a
	// per-deployment input.
	mask uint32
}

// reorderMask is the lean ISA a reorder detector needs: register moves,
// the signed compare, the arithmetic of the select idiom
// (max' = seq + reordered*(max-seq)), and the map ops. On the full
// 24-opcode ISA this benchmark's search does not converge in test time.
var reorderMask = uint32(1)<<bpf.OpNop | 1<<bpf.OpMov | 1<<bpf.OpAdd |
	1<<bpf.OpSub | 1<<bpf.OpMul | 1<<bpf.OpLt | 1<<bpf.OpLdMap | 1<<bpf.OpStMap

// bpfCorpus is the BPF acceptance slice of the Table-2 corpus: every
// program with a register-program encoding small enough to synthesize in
// test time, at hand-worked slot budgets. rcp is excluded — its three
// fields and running sums need a slot budget whose hole space outgrows a
// unit test.
var bpfCorpus = []bpfBudget{
	{"marple_new_flow", 5, 1, 0},
	{"stateful_fw", 6, 1, 0},
	{"marple_reorder", 7, 4, reorderMask},
	{"sampling", 8, 1, 0},
}

func bpfCompileOptions(b programs.Benchmark, bb bpfBudget) core.Options {
	return core.Options{
		Target:        "bpf",
		MaxStages:     bb.slots,
		FixedStages:   true,
		BPFOpcodeMask: bb.mask,
		StatelessALU:  alu.Stateless{ConstBits: b.ConstBits},
		StatefulALU:   alu.Stateful{Kind: b.StatefulALU, ConstBits: b.ConstBits},
		Seed:          bb.seed,
	}
}

// TestBPFCorpusEndToEnd is the BPF backend's flagship integration test,
// the register-machine analogue of core's TestCorpusCompiles: each corpus
// program must synthesize to a feasible BPF configuration at its
// hand-worked slot budget, and the configuration must agree with the
// reference interpreter under the brute-force oracle (width-5 exhaustive
// sweep plus 4096 random probes at the verification width).
func TestBPFCorpusEndToEnd(t *testing.T) {
	for _, bb := range bpfCorpus {
		bb := bb
		t.Run(bb.name, func(t *testing.T) {
			t.Parallel()
			b, err := programs.ByName(bb.name)
			if err != nil {
				t.Fatal(err)
			}
			prog := b.Parse()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			start := time.Now()
			rep, err := core.Compile(ctx, prog, bpfCompileOptions(b, bb))
			if err != nil {
				t.Fatal(err)
			}
			if rep.TimedOut {
				t.Fatalf("timed out after %v", time.Since(start))
			}
			if !rep.Feasible {
				t.Fatalf("infeasible at %d slots (budget worked out by hand)", bb.slots)
			}
			if rep.Target != "bpf" {
				t.Fatalf("report target = %q, want bpf", rep.Target)
			}
			cfg, ok := rep.Artifact.(*bpf.Config)
			if !ok {
				t.Fatalf("artifact is %T, want *bpf.Config", rep.Artifact)
			}
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			if d := CheckConfigEquivalence(prog, cfg, bb.seed); d != nil {
				t.Fatalf("%s\nconfig:\n%s", d, cfg)
			}
			t.Logf("%s @%d slots in %v:\n%s", bb.name, bb.slots, time.Since(start), cfg)
		})
	}
}
