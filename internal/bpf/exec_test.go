package bpf

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/arith"
	"repro/internal/backend"
	"repro/internal/word"
)

// randomProgram draws a program with every selector in range for its
// register file and map; immediates use the full ConstBits range.
func randomProgram(rng *rand.Rand, slots, nf, ns int, w word.Width) *Config {
	c := &Config{
		Spec: MachineSpec{Slots: slots, WordWidth: w, ConstBits: 4},
	}
	for i := 0; i < nf; i++ {
		c.Fields = append(c.Fields, fmt.Sprintf("f%d", i))
	}
	for i := 0; i < ns; i++ {
		c.States = append(c.States, fmt.Sprintf("s%d", i))
	}
	regs := c.Spec.RegsFor(nf)
	for i := 0; i < slots; i++ {
		c.Instrs = append(c.Instrs, Instr{
			Op:   Opcode(rng.Intn(NumOpcodes)),
			Dst:  rng.Intn(regs),
			Src:  rng.Intn(regs),
			Imm:  uint64(rng.Intn(16)),
			Cell: rng.Intn(max(ns, 1)),
		})
	}
	return c
}

// TestExecutorMatchesProgram pins the allocation-free slot executor to
// the generic Program over uint64, the independent reference that shares
// only evalOp with it. Every input is swept at each width. Widths 1–4 sit
// below the 5-bit opcode selector, and programs with more fields, scratch
// registers or state cells than 2^w make operand selectors, writeback
// targets and store cells alias — visibly so when an aliased register or
// cell is an output — exactly as the symbolic machine's truncating Eq
// chains make them.
func TestExecutorMatchesProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, w := range []word.Width{1, 2, 3, 4, 5} {
		a := arith.Conc{W: w}
		for trial := 0; trial < 80; trial++ {
			nf, ns := rng.Intn(5), rng.Intn(6)
			for int(w)*(nf+ns) > 12 {
				nf, ns = nf/2, max(ns-1, 0)
			}
			cfg := randomProgram(rng, 1+rng.Intn(6), nf, ns, w)
			if trial%4 == 0 {
				// Extra scratch registers, so selectors outgrow w.
				cfg.Spec.Regs = nf + 3 + rng.Intn(4)
				for i := range cfg.Instrs {
					cfg.Instrs[i].Dst = rng.Intn(cfg.Spec.Regs)
					cfg.Instrs[i].Src = rng.Intn(cfg.Spec.Regs)
				}
			}
			regs := cfg.Spec.RegsFor(nf)
			holes := cfg.holesAt(w)
			exec := cfg.NewExecutor()
			got := make([]uint64, nf+ns)
			d := backend.Sweep(w, nf+ns, func(in []uint64) *string {
				wantF, wantS := Program[uint64](a, regs, holes, in[:nf], in[nf:])
				want := append(append([]uint64{}, wantF...), wantS...)
				copy(got, in)
				exec(got[:nf], got[nf:])
				for i := range got {
					if got[i] != want[i] {
						msg := fmt.Sprintf("width %d input %v: output %d: executor=%d Program=%d\n%s",
							w, in, i, got[i], want[i], cfg)
						return &msg
					}
				}
				return nil
			})
			if d != nil {
				t.Fatal(*d)
			}
		}
	}
}

// TestExecutorDoesNotAllocate is the contract the oracle's probe loop
// depends on.
func TestExecutorDoesNotAllocate(t *testing.T) {
	cfg := randomProgram(rand.New(rand.NewSource(5)), 8, 2, 2, 10)
	exec := cfg.NewExecutor()
	fv, sv := []uint64{3, 7}, []uint64{1, 2}
	if allocs := testing.AllocsPerRun(200, func() { exec(fv, sv) }); allocs != 0 {
		t.Fatalf("executor allocates %.1f objects per packet, want 0", allocs)
	}
}
