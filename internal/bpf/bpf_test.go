package bpf_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bpf"
	"repro/internal/cegis"
	"repro/internal/interp"
	"repro/internal/programs"
	"repro/internal/word"
)

// handSampling is a hand-written encoding of the sampling benchmark
// (count==10 → sample=1, count=0; else sample=0, count++): the kind of
// program a human eBPF developer would write, used to pin the machine
// semantics against the reference interpreter independent of synthesis.
func handSampling(w word.Width) *bpf.Config {
	return &bpf.Config{
		Spec:   bpf.MachineSpec{Slots: 8, Regs: 3, WordWidth: w, ConstBits: 4},
		Fields: []string{"sample"},
		States: []string{"count"},
		Instrs: []bpf.Instr{
			{Op: bpf.OpLdMap, Dst: 1, Cell: 0}, // r1 = count
			{Op: bpf.OpMov, Dst: 0, Src: 1},    // r0 = count
			{Op: bpf.OpEqImm, Dst: 0, Imm: 10}, // r0 = (count == 10) = sample
			{Op: bpf.OpAddImm, Dst: 1, Imm: 1}, // r1 = count + 1
			{Op: bpf.OpMov, Dst: 2, Src: 0},    // r2 = sample
			{Op: bpf.OpEqImm, Dst: 2, Imm: 0},  // r2 = !sample
			{Op: bpf.OpMul, Dst: 1, Src: 2},    // r1 = !sample * (count+1)
			{Op: bpf.OpStMap, Cell: 0, Src: 1}, // count' = r1
		},
	}
}

func TestHandWrittenSamplingMatchesInterpreter(t *testing.T) {
	b, err := programs.ByName("sampling")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Parse()
	// Widths start at 5: below the 5-bit opcode-selector width the
	// machine's truncating selection aliases opcodes (the same reason
	// sketch MinWidth clamps synthesis width).
	for _, w := range []word.Width{5, 8, 10} {
		cfg := handSampling(w)
		if err := cfg.Validate(); err != nil {
			t.Fatalf("width %d: %v", w, err)
		}
		in := interp.MustNew(w)
		rng := rand.New(rand.NewSource(int64(w)))
		for trial := 0; trial < 500; trial++ {
			snap := interp.NewSnapshot()
			snap.Pkt["sample"] = w.Trunc(rng.Uint64())
			snap.State["count"] = w.Trunc(rng.Uint64())
			want, err := in.Run(prog, snap)
			if err != nil {
				t.Fatal(err)
			}
			gotPkt, gotState := cfg.Exec(snap.Pkt, snap.State)
			if gotPkt["sample"] != want.Pkt["sample"] || gotState["count"] != want.State["count"] {
				t.Fatalf("width %d, input %v: got sample=%d count=%d, want sample=%d count=%d",
					w, snap, gotPkt["sample"], gotState["count"], want.Pkt["sample"], want.State["count"])
			}
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := handSampling(10)
	// Symbolic/concrete agreement is covered by backendtest; here check
	// the String renderer mentions every live opcode.
	s := cfg.String()
	for _, frag := range []string{"r1 = m[0]", "m[0] = r1", "r0 = (r0 == 10)"} {
		if !contains(s, frag) {
			t.Fatalf("String() missing %q:\n%s", frag, s)
		}
	}
	if cfg.LiveInstrs() != 8 {
		t.Fatalf("LiveInstrs = %d, want 8", cfg.LiveInstrs())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestSynthesizeMarpleNewFlow is the cheapest end-to-end synthesis check:
// CEGIS fills the slot holes for a real benchmark on the bpf backend.
func TestSynthesizeMarpleNewFlow(t *testing.T) {
	b, err := programs.ByName("marple_new_flow")
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Parse()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	be := bpf.Backend{Spec: bpf.MachineSpec{ConstBits: 4}}
	start := time.Now()
	res, err := cegis.SynthesizeOn(ctx, prog, be, 5, cegis.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("marple_new_flow @5 slots: feasible=%v timedout=%v iters=%d holebits=%d in %v",
		res.Feasible, res.TimedOut, res.Iters, res.HoleBits, time.Since(start))
	if !res.Feasible {
		t.Fatalf("expected feasible: %+v", res)
	}
	if res.Target != "bpf" {
		t.Fatalf("result target = %q, want bpf", res.Target)
	}
	cfg, ok := res.TargetConfig.(*bpf.Config)
	if !ok {
		t.Fatalf("TargetConfig is %T", res.TargetConfig)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("synthesized:\n%s", cfg)
}
