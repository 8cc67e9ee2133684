package chipmunk_test

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/pisa"
)

// buildTool compiles one of the cmd/ binaries into a temp dir, skipping
// the test if the Go toolchain is unavailable.
func buildTool(t *testing.T, name string) string {
	t.Helper()
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not in PATH")
	}
	bin := filepath.Join(t.TempDir(), name)
	cmd := exec.Command(goBin, "build", "-o", bin, "./cmd/"+name)
	cmd.Dir = mustModuleRoot(t)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building %s: %v\n%s", name, err, out)
	}
	return bin
}

func mustModuleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return wd
}

func samplingPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(mustModuleRoot(t), "testdata", "sampling.domino")
}

func TestCLIChipmunkCompiles(t *testing.T) {
	bin := buildTool(t, "chipmunk")
	out, err := exec.Command(bin, "-width", "2", "-alu", "if_else_raw", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("chipmunk CLI failed: %v\n%s", err, out)
	}
	for _, want := range []string{"compiled", "resources:", "stateful[0] (active)"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIChipmunkJSONFeedsPisasim(t *testing.T) {
	chip := buildTool(t, "chipmunk")
	sim := buildTool(t, "pisasim")

	out, err := exec.Command(chip, "-width", "2", "-alu", "if_else_raw", "-json", samplingPath(t)).Output()
	if err != nil {
		t.Fatalf("chipmunk -json failed: %v", err)
	}
	var cfg pisa.Config
	if err := json.Unmarshal(out, &cfg); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(cfgPath, out, 0o644); err != nil {
		t.Fatal(err)
	}

	simOut, err := exec.Command(sim,
		"-config", cfgPath,
		"-program", samplingPath(t),
		"-packets", "500",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pisasim failed: %v\n%s", err, simOut)
	}
	if !strings.Contains(string(simOut), "0 divergences") {
		t.Fatalf("expected zero divergences:\n%s", simOut)
	}
}

func TestCLIChipmunkInfeasibleExitCode(t *testing.T) {
	bin := buildTool(t, "chipmunk")
	src := filepath.Join(t.TempDir(), "hard.domino")
	if err := os.WriteFile(src, []byte("pkt.a = pkt.a * pkt.b;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(bin, "-width", "2", "-alu", "counter", "-max-stages", "2", src)
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 {
		t.Fatalf("want exit code 3 for infeasible, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "INFEASIBLE") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCLIDominoc(t *testing.T) {
	bin := buildTool(t, "dominoc")
	out, err := exec.Command(bin, "-alu", "if_else_raw", "-flat", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("dominoc failed: %v\n%s", err, out)
	}
	for _, want := range []string{"atom if_else_raw", "predicated form:"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// A rejected program exits 3 with a reason.
	src := filepath.Join(t.TempDir(), "rej.domino")
	os.WriteFile(src, []byte("if (!(pkt.a == 0)) { s = s + 1; }\n"), 0o644)
	out, err = exec.Command(bin, "-alu", "pred_raw", src).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 3 || !strings.Contains(string(out), "REJECTED") {
		t.Fatalf("want REJECTED exit 3, got %v\n%s", err, out)
	}
}

func TestCLIMutgen(t *testing.T) {
	bin := buildTool(t, "mutgen")
	out, err := exec.Command(bin, "-n", "5", "-check", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("mutgen failed: %v\n%s", err, out)
	}
	if got := strings.Count(string(out), "// --- mutant"); got != 5 {
		t.Fatalf("printed %d mutants, want 5:\n%s", got, out)
	}
}

func TestCLISuperopt(t *testing.T) {
	bin := buildTool(t, "superopt")
	src := filepath.Join(t.TempDir(), "x5.domino")
	if err := os.WriteFile(src, []byte("pkt.y = pkt.x * 5;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, src).CombinedOutput()
	if err != nil {
		t.Fatalf("superopt failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "2 instruction(s)") {
		t.Fatalf("x*5 should superoptimize to 2 instructions:\n%s", out)
	}
}

func TestCLIRepairhint(t *testing.T) {
	bin := buildTool(t, "repairhint")
	src := filepath.Join(t.TempDir(), "broken.domino")
	if err := os.WriteFile(src, []byte("if (pkt.a == 0) { s = 1 + s; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-alu", "pred_raw", src).CombinedOutput()
	if err != nil {
		t.Fatalf("repairhint failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "commute") || !strings.Contains(string(out), "repaired program") {
		t.Fatalf("expected a commute hint:\n%s", out)
	}
}

func TestCLIEvalgenSubset(t *testing.T) {
	if testing.Short() {
		t.Skip("evalgen run in -short mode")
	}
	bin := buildTool(t, "evalgen")
	csv := filepath.Join(t.TempDir(), "out.csv")
	out, err := exec.Command(bin,
		"-programs", "sampling",
		"-mutants", "3",
		"-csv", csv,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("evalgen failed: %v\n%s", err, out)
	}
	for _, want := range []string{"Table 2", "Figure 5", "sampling"} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 4 { // header + 3 mutants
		t.Fatalf("CSV has %d lines, want 4:\n%s", lines, data)
	}
}

func TestCLIChipmunkEmit(t *testing.T) {
	bin := buildTool(t, "chipmunk")
	out, err := exec.Command(bin, "-width", "2", "-alu", "if_else_raw", "-emit", "p4", samplingPath(t)).Output()
	if err != nil {
		t.Fatalf("chipmunk -emit p4 failed: %v", err)
	}
	if !strings.Contains(string(out), "control ChipmunkPipe") {
		t.Fatalf("P4 output malformed:\n%s", out)
	}
	out, err = exec.Command(bin, "-width", "2", "-alu", "if_else_raw", "-emit", "go", samplingPath(t)).Output()
	if err != nil {
		t.Fatalf("chipmunk -emit go failed: %v", err)
	}
	if !strings.Contains(string(out), "func process(") {
		t.Fatalf("Go output malformed:\n%s", out)
	}
}

func TestCLIPisasimWorkload(t *testing.T) {
	chip := buildTool(t, "chipmunk")
	sim := buildTool(t, "pisasim")
	cfgJSON, err := exec.Command(chip, "-width", "2", "-alu", "if_else_raw", "-json", samplingPath(t)).Output()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	os.WriteFile(cfgPath, cfgJSON, 0o644)
	out, err := exec.Command(sim,
		"-config", cfgPath, "-program", samplingPath(t),
		"-flows", "4", "-packets", "200",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pisasim -flows failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "0 divergences") {
		t.Fatalf("expected zero divergences:\n%s", out)
	}
}

// TestCLIPisasimEngines runs the same config through each of pisasim's
// uses of the line-rate engine: packet by packet with the spec oracle
// riding along, single-flow and multi-flow, and as a batch replay, whose
// checksum must not depend on the shard count. Every run reports
// throughput.
func TestCLIPisasimEngines(t *testing.T) {
	chip := buildTool(t, "chipmunk")
	sim := buildTool(t, "pisasim")
	cfgJSON, err := exec.Command(chip, "-width", "2", "-alu", "if_else_raw", "-json", samplingPath(t)).Output()
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(t.TempDir(), "cfg.json")
	os.WriteFile(cfgPath, cfgJSON, 0o644)

	for _, args := range [][]string{
		{"-packets", "2000"},
		{"-flows", "8", "-packets", "5000"},
	} {
		out, err := exec.Command(sim, append([]string{"-config", cfgPath, "-program", samplingPath(t)}, args...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("pisasim -program %v failed: %v\n%s", args, err, out)
		}
		for _, want := range []string{"0 divergences", "throughput:"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("pisasim -program %v output missing %q:\n%s", args, want, out)
			}
		}
	}

	// Sharded replay: checksum must match the single-shard run.
	single, err := exec.Command(sim,
		"-config", cfgPath, "-flows", "8", "-packets", "5000",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pisasim replay failed: %v\n%s", err, single)
	}
	sharded, err := exec.Command(sim,
		"-config", cfgPath, "-flows", "8", "-packets", "5000", "-shards", "4",
	).CombinedOutput()
	if err != nil {
		t.Fatalf("pisasim sharded replay failed: %v\n%s", err, sharded)
	}
	if !strings.Contains(string(sharded), "throughput:") {
		t.Fatalf("output missing replay throughput line:\n%s", sharded)
	}
	pick := func(out []byte) string {
		for _, line := range strings.Split(string(out), "\n") {
			if strings.Contains(line, "checksum") {
				return line[strings.Index(line, "checksum"):strings.Index(line, ",")]
			}
		}
		t.Fatalf("no checksum line in:\n%s", out)
		return ""
	}
	if a, b := pick(single), pick(sharded); a != b {
		t.Fatalf("sharded checksum diverged: %q vs %q", b, a)
	}
}

// TestCLIChipmunkTraceAndStats checks that -trace-out writes a well-formed
// JSONL span trace and -stats prints a metrics block whose SAT conflict
// total is the sum of the per-solve deltas recorded in the trace's
// sat.solve spans.
func TestCLIChipmunkTraceAndStats(t *testing.T) {
	bin := buildTool(t, "chipmunk")
	trace := filepath.Join(t.TempDir(), "trace.jsonl")
	out, err := exec.Command(bin, "-width", "2", "-alu", "if_else_raw",
		"-trace-out", trace, "-stats", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("chipmunk -trace-out -stats failed: %v\n%s", err, out)
	}

	f, err := os.Open(trace)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadRecords(f)
	f.Close()
	if err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	if err := obs.CheckWellFormed(recs); err != nil {
		t.Fatalf("trace not well-formed: %v", err)
	}
	if len(recs) == 0 || recs[0].Name != "compile" {
		t.Fatalf("trace should open with a compile span, got %+v", recs[:1])
	}

	// Sum the per-solve conflict deltas carried on sat.solve end records.
	// (Phase spans carry a conflicts attr too; count only the leaves.)
	names := map[int64]string{}
	for _, r := range recs {
		if r.Type == obs.RecordStart {
			names[r.ID] = r.Name
		}
	}
	var fromSpans int64
	for _, r := range recs {
		if r.Type == obs.RecordEnd && names[r.ID] == "sat.solve" {
			if v, ok := r.Attrs["conflicts"].(float64); ok {
				fromSpans += int64(v)
			}
		}
	}

	// The -stats block reports the registry's cumulative counter.
	var fromStats int64 = -1
	for _, line := range strings.Split(string(out), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == "sat.conflicts" {
			n, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("bad sat.conflicts line %q: %v", line, err)
			}
			fromStats = n
		}
	}
	if fromStats < 0 {
		t.Fatalf("-stats output missing sat.conflicts:\n%s", out)
	}
	if fromStats != fromSpans {
		t.Fatalf("stats sat.conflicts = %d but trace spans sum to %d", fromStats, fromSpans)
	}
	if !strings.Contains(string(out), "--- spans ---") || !strings.Contains(string(out), "compile") {
		t.Fatalf("-stats missing span summary:\n%s", out)
	}
}

// TestCLIChipmunkTraceOutWriteFailure: a trace that cannot be written
// fails the run instead of being dropped silently.
func TestCLIChipmunkTraceOutWriteFailure(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	bin := buildTool(t, "chipmunk")
	out, err := exec.Command(bin, "-width", "2", "-alu", "if_else_raw",
		"-trace-out", "/dev/full", samplingPath(t)).CombinedOutput()
	if err == nil {
		t.Fatalf("chipmunk -trace-out /dev/full exited 0:\n%s", out)
	}
	if !strings.Contains(string(out), "writing trace") {
		t.Errorf("error output does not name the trace write:\n%s", out)
	}
}

// TestCLIChipmunkVerbose: -v prints the compile's spans as they end,
// through the renderer -watch uses, and with -seed-fanout attempts carry
// their member label. sampling compiles inside the hedge stagger, so
// only slot 0's attempts run; the core tests cover slots that race.
func TestCLIChipmunkVerbose(t *testing.T) {
	bin := buildTool(t, "chipmunk")
	out, err := exec.Command(bin, "-v", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("chipmunk -v failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "< verify conflicts=") || !strings.Contains(string(out), "outcome=unsat") {
		t.Errorf("-v output lacks a verify span end with outcome=unsat:\n%s", out)
	}
	if strings.Contains(string(out), "sat.solve") {
		t.Errorf("-v output should elide sat.solve spans:\n%s", out)
	}
	out, err = exec.Command(bin, "-v", "-seed-fanout", "2", samplingPath(t)).CombinedOutput()
	if err != nil {
		t.Fatalf("chipmunk -v -seed-fanout 2 failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "> attempt member=") {
		t.Errorf("-v -seed-fanout output lacks attempt lines with member=:\n%s", out)
	}
}

// TestCLIEvalgenEffortColumns checks the new effort CSV columns, the
// Table 2 effort footer, -stats and -trace-dir.
func TestCLIEvalgenEffortColumns(t *testing.T) {
	if testing.Short() {
		t.Skip("evalgen run in -short mode")
	}
	bin := buildTool(t, "evalgen")
	dir := t.TempDir()
	csv := filepath.Join(dir, "out.csv")
	traces := filepath.Join(dir, "traces")
	out, err := exec.Command(bin,
		"-programs", "sampling",
		"-mutants", "2",
		"-csv", csv,
		"-stats",
		"-trace-dir", traces,
	).CombinedOutput()
	if err != nil {
		t.Fatalf("evalgen failed: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "solver effort:") {
		t.Errorf("Table 2 missing effort footer:\n%s", out)
	}
	if !strings.Contains(string(out), "sat.conflicts") {
		t.Errorf("-stats block missing:\n%s", out)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	header := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.Contains(header, "chipmunk_conflicts") || !strings.Contains(header, "chipmunk_peak_cnf_vars") {
		t.Fatalf("CSV header missing effort columns: %s", header)
	}
	entries, err := os.ReadDir(traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("expected 2 trace files, found %d", len(entries))
	}
	for _, e := range entries {
		f, err := os.Open(filepath.Join(traces, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		recs, err := obs.ReadRecords(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if err := obs.CheckWellFormed(recs); err != nil {
			t.Errorf("%s: %v", e.Name(), err)
		}
	}
}
