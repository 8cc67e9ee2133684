package emit

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/linerate"
	"repro/internal/pisa"
	"repro/internal/programs"
)

// interpCSV replays the emitted harness's input stream through the
// reference interpreter running the *source program* — not the config —
// producing the same CSV the emitted binary prints.
func interpCSV(t *testing.T, name string, cfg *pisa.Config, packets int, seed uint64) string {
	t.Helper()
	b, err := programs.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	prog := b.Parse()
	w := cfg.Grid.WordWidth
	in := interp.MustNew(w)
	fields := append([]string{}, cfg.Fields...)
	states := append([]string{}, cfg.States...)
	sortStrings(fields)
	sortStrings(states)
	var sb strings.Builder
	rngState := seed
	next := func() uint64 {
		rngState += 0x9e3779b97f4a7c15
		z := rngState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	state := map[string]uint64{}
	for i := 0; i < packets; i++ {
		snap := interp.NewSnapshot()
		for _, f := range fields {
			snap.Pkt[f] = w.Trunc(next())
		}
		for s, v := range state {
			snap.State[s] = v
		}
		res, err := in.Run(prog, snap)
		if err != nil {
			t.Fatal(err)
		}
		state = map[string]uint64{}
		for _, s := range states {
			state[s] = res.State[s]
		}
		fmt.Fprintf(&sb, "%d", i)
		for _, f := range fields {
			fmt.Fprintf(&sb, ",%d", res.Pkt[f])
		}
		for _, s := range states {
			fmt.Fprintf(&sb, ",%d", res.State[s])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// linerateCSV replays the same stream through the compiled line-rate
// engine.
func linerateCSV(t *testing.T, cfg *pisa.Config, packets int, seed uint64) string {
	t.Helper()
	eng, err := linerate.Compile(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := cfg.Grid.WordWidth
	fields := append([]string{}, cfg.Fields...)
	states := append([]string{}, cfg.States...)
	sortStrings(fields)
	sortStrings(states)
	// The engine works in cfg order; build index maps for sorted output.
	fi := make([]int, len(fields))
	for i, f := range fields {
		for j, cf := range cfg.Fields {
			if cf == f {
				fi[i] = j
			}
		}
	}
	si := make([]int, len(states))
	for i, s := range states {
		for j, cs := range cfg.States {
			if cs == s {
				si[i] = j
			}
		}
	}
	buf := eng.NewBuf()
	fv := make([]uint64, len(cfg.Fields))
	sv := make([]uint64, len(cfg.States))
	var sb strings.Builder
	rngState := seed
	next := func() uint64 {
		rngState += 0x9e3779b97f4a7c15
		z := rngState
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := 0; i < packets; i++ {
		// The stream draws per sorted field name, like the emitted main.
		for _, j := range fi {
			fv[j] = w.Trunc(next())
		}
		eng.ExecInto(buf, fv, sv)
		fmt.Fprintf(&sb, "%d", i)
		for _, j := range fi {
			fmt.Fprintf(&sb, ",%d", fv[j])
		}
		for _, j := range si {
			fmt.Fprintf(&sb, ",%d", sv[j])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// instrAssign matches one emitted instruction, rD := op(rA[, rB[, rC]]);
// constants and loads take no register operands.
var instrAssign = regexp.MustCompile(`(?m)^\tr\d+ := [a-z]+\(r\d+(, r\d+)*\)$`)

// processBody returns the emitted process function's body.
func processBody(t *testing.T, src string) string {
	t.Helper()
	start := strings.Index(src, "func process(")
	end := strings.Index(src[max(start, 0):], "\n}\n")
	if start < 0 || end < 0 {
		t.Fatalf("no process function in:\n%s", src)
	}
	return src[start : start+end]
}

// TestThreeWayCorpusDifferential cross-checks three independent execution
// paths on every corpus program: the reference interpreter running the
// source program, the compiled line-rate engine running the synthesized
// config, and the emitted standalone Go program built and run with the
// real toolchain. Agreement pins the whole lowering chain — any
// miscompile in sketch extraction, engine compilation, or emission shows
// up as a CSV diff.
func TestThreeWayCorpusDifferential(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	const packets = 200
	const seed = 41
	for _, b := range programs.Corpus() {
		name := b.Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := compileBench(t, name)

			want := interpCSV(t, name, cfg, packets, seed)
			if got := linerateCSV(t, cfg, packets, seed); strings.TrimSpace(got) != strings.TrimSpace(want) {
				t.Fatalf("linerate engine diverges from interpreter.\ngot:\n%s\nwant:\n%s",
					firstLines(got, 5), firstLines(want, 5))
			}

			src, err := Go(cfg, packets, seed)
			if err != nil {
				t.Fatal(err)
			}
			// process is the engine's program: one assignment per
			// instruction, so no dead ALU or duplicate value came back.
			eng, err := linerate.Compile(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := len(instrAssign.FindAllString(processBody(t, src), -1)), len(eng.Program().Instrs); got != want {
				t.Fatalf("emitted process holds %d instruction assignments, the engine runs %d:\n%s", got, want, src)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module emitted\n\ngo 1.22\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			cmd := exec.Command(goBin, "run", ".")
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			if err != nil {
				t.Fatalf("emitted program failed: %v\n%s", err, out)
			}
			if got := strings.TrimSpace(string(out)); got != strings.TrimSpace(want) {
				t.Fatalf("emitted Go diverges from interpreter.\ngot:\n%s\nwant:\n%s",
					firstLines(got, 5), firstLines(want, 5))
			}
		})
	}
}
