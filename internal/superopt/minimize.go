package superopt

import (
	"context"

	"repro/internal/ast"
	"repro/internal/bpf"
	"repro/internal/cegis"
)

// BPFMinimizeResult reports one superoptimization run over the BPF
// register machine: the smallest feasible slot count found and the
// configuration synthesized there.
type BPFMinimizeResult struct {
	// Config is the best (fewest-slot) configuration found. Equal to the
	// input config when no smaller program exists within the budget.
	Config *bpf.Config
	// Slots is len(Config.Instrs).
	Slots int
	// Removed is the number of slots shaved off the input configuration.
	Removed int
	// Attempts is the number of synthesis calls made.
	Attempts int
	// Exhausted is true when the search proved the result minimal (the
	// next-smaller slot count is infeasible) rather than stopping on a
	// timeout or the context deadline.
	Exhausted bool
}

// MinimizeBPF is the K2-style instruction-count minimizer for the BPF
// backend: starting from a feasible configuration, it re-synthesizes the
// program at successively smaller slot counts until CEGIS proves the next
// size infeasible or the context expires. Unlike Superoptimize — which
// deepens upward from length 0 because it starts from a specification —
// this descends from a witness, so every intermediate answer is a usable
// program and interruption is safe.
//
// The machine spec (registers, immediate width, opcode mask) is taken
// from the input configuration so the minimized program runs on the same
// machine.
func MinimizeBPF(ctx context.Context, prog *ast.Program, cfg *bpf.Config, opts cegis.Options) (*BPFMinimizeResult, error) {
	res := &BPFMinimizeResult{Config: cfg, Slots: len(cfg.Instrs)}
	be := bpf.Backend{Spec: bpf.MachineSpec{
		Regs:       cfg.Spec.Regs,
		ConstBits:  cfg.Spec.ConstBits,
		OpcodeMask: cfg.Spec.OpcodeMask,
	}}
	for slots := len(cfg.Instrs) - 1; slots >= 1; slots-- {
		if ctx.Err() != nil {
			return res, nil
		}
		sr, err := cegis.SynthesizeOn(ctx, prog, be, slots, opts)
		if err != nil {
			return nil, err
		}
		res.Attempts++
		if sr.TimedOut {
			return res, nil
		}
		if !sr.Feasible {
			res.Exhausted = true
			return res, nil
		}
		smaller, ok := sr.TargetConfig.(*bpf.Config)
		if !ok {
			// Cannot happen with a bpf backend; treat as search failure.
			return res, nil
		}
		res.Config = smaller
		res.Slots = slots
		res.Removed = len(cfg.Instrs) - slots
	}
	res.Exhausted = true
	return res, nil
}
