package superopt

import (
	"context"
	"testing"
	"time"

	"repro/internal/bpf"
	"repro/internal/cegis"
	"repro/internal/difftest"
	"repro/internal/programs"
)

// TestMinimizeBPFRemovesInstructions synthesizes marple_new_flow at a
// deliberately loose slot budget and checks the K2-style minimizer shaves
// at least one slot off (the program is known feasible at 5 slots), with
// the minimized program still equivalent to the source under the
// brute-force oracle.
func TestMinimizeBPFRemovesInstructions(t *testing.T) {
	b, err := programs.ByName("marple_new_flow")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	be := bpf.Backend{Spec: bpf.MachineSpec{ConstBits: b.ConstBits}}
	const loose = 6
	res, err := cegis.SynthesizeOn(ctx, prog, be, loose, cegis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("setup synthesis at %d slots infeasible", loose)
	}
	start := res.TargetConfig.(*bpf.Config)

	min, err := MinimizeBPF(ctx, prog, start, cegis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("minimized %d -> %d slots in %d attempts (exhausted=%v)",
		len(start.Instrs), min.Slots, min.Attempts, min.Exhausted)
	if min.Removed < 1 {
		t.Fatalf("minimizer removed no instructions from a %d-slot program known to fit 5", loose)
	}
	if err := min.Config.Validate(); err != nil {
		t.Fatal(err)
	}
	if d := difftest.CheckConfigEquivalence(prog, min.Config, 1); d != nil {
		t.Fatalf("%s\nminimized config:\n%s", d, min.Config)
	}
}
