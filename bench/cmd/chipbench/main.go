// Command chipbench runs the repository's benchmark (package repro/bench).
//
//	chipbench [-seed N] [-seconds S] [-trace 0|1] [-out DIR] [-spec FILE] [-workload NAME]
//	chipbench compare DIR_A DIR_B
//
// Without -workload it runs every workload BENCHMARK.json declares, each
// in a child process of its own (chipbench re-executes itself with
// -workload), so set-up time and peak memory belong to one workload; then
// it prints a summary. With -workload it runs that workload in-process,
// prints every metric by name with its unit, writes the run's perfhist
// envelope under -out, and prints a one-line JSON summary last. -trace 1
// runs the traced pass instead, which reports per-layer metrics and writes
// <workload>.trace.jsonl and <workload>.layers.json.
//
// compare prints each (workload, end-to-end metric) median of the runs
// under DIR_A and DIR_B with their ratio, and exits 1 when any metric is
// worse in DIR_B by more than its BENCHMARK.json bound or a fail_ratio
// rises.
//
// chipbench exits 1 when any run fails a check or errs.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"repro/bench"
)

// runTimeout bounds one workload run, compiles included.
const runTimeout = 170 * time.Second

// setups is how many times an untraced run sets up (setup_s is the
// median); a traced run sets up once.
const setups = 5

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compare(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("chipbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "workload seed: generates mutants, request streams and traces")
	seconds := fs.Int("seconds", 0, "how long each run measures (0: run_seconds from the spec)")
	trace := fs.Int("trace", 0, "1 runs the traced pass (per-layer metrics) instead of the measured one")
	out := fs.String("out", "bench/out", "directory for envelopes, traces and layer files")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration")
	workload := fs.String("workload", "", "run only this workload, in-process")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "chipbench: unexpected arguments; see -h")
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "chipbench:", err)
		return 1
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *workload != "" {
		return runOne(*workload, bench.Plan{
			Seed:    *seed,
			Measure: time.Duration(*seconds) * time.Second,
			Setups:  setups,
			Trace:   *trace == 1,
			Out:     *out,
		}, stdout, stderr)
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "chipbench:", err)
		return 1
	}
	return runAll(exe, spec, *trace == 1, []string{"-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*seconds),
		"-trace", strconv.Itoa(*trace), "-out", *out, "-spec", *specPath}, stdout, stderr)
}

func runOne(name string, p bench.Plan, stdout, stderr io.Writer) int {
	f, ok := bench.Workloads()[name]
	if !ok {
		fmt.Fprintf(stderr, "chipbench: unknown workload %q\n", name)
		return 2
	}
	if p.Trace {
		p.Setups = 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	res, err := f(ctx, p)
	if err != nil {
		fmt.Fprintf(stderr, "chipbench: %s: %v\n", name, err)
		return 1
	}
	if err := bench.WriteResult(p.Out, res); err != nil {
		fmt.Fprintf(stderr, "chipbench: %s: %v\n", name, err)
		return 1
	}
	fmt.Fprint(stdout, res.Report())
	for _, pl := range res.Programs {
		fmt.Fprintf(stdout, "  program %-16s wall %9.1f ms  synth_sat %8.1f  verify_sat %8.1f  encode %8.1f  outside_cegis %8.1f  explain %7.1f  lookup %6.1f  dominant %s\n",
			pl.Program, pl.WallMS, pl.SynthSATMS, pl.VerifySATMS, pl.EncodeMS, pl.OutsideMS, pl.ExplainMS, pl.LookupMS, pl.Dominant)
	}
	line, err := res.Line()
	if err != nil {
		fmt.Fprintln(stderr, "chipbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct() {
		return 1
	}
	return 0
}

// runAll runs every declared workload in a child process and prints a
// summary of their one-line results.
func runAll(exe string, spec *bench.Spec, traced bool, args []string, stdout, stderr io.Writer) int {
	code := 0
	type summary struct {
		name              string
		correct           bool
		attempted, failed int
		metrics           map[string]float64
	}
	var sums []summary
	for _, name := range spec.Names() {
		var buf bytes.Buffer
		cmd := exec.Command(exe, append([]string{"-workload", name}, args...)...)
		cmd.Stdout, cmd.Stderr = &buf, stderr
		err := cmd.Run()
		stdout.Write(buf.Bytes())
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		correct, attempted, failed, metrics, perr := bench.ParseLine([]byte(lines[len(lines)-1]))
		if err != nil || perr != nil {
			fmt.Fprintf(stderr, "chipbench: workload %s failed: %v\n", name, err)
			code = 1
		}
		if perr != nil {
			continue
		}
		sums = append(sums, summary{name, correct, attempted, failed, metrics})
	}
	if len(sums) == 0 {
		return 1
	}
	fmt.Fprintf(stdout, "\n%-24s", "metric")
	for _, s := range sums {
		fmt.Fprintf(stdout, " %14s", s.name)
	}
	fmt.Fprintln(stdout)
	for _, m := range bench.Catalog(traced) {
		fmt.Fprintf(stdout, "%-24s", m.Name+" ("+m.Unit+")")
		for _, s := range sums {
			fmt.Fprintf(stdout, " %14.6g", s.metrics[m.Name])
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "%-24s", "fail_ratio")
	for _, s := range sums {
		r := 0.0
		if s.attempted > 0 {
			r = float64(s.failed) / float64(s.attempted)
		}
		fmt.Fprintf(stdout, " %14.6g", r)
		if !s.correct {
			code = 1
		}
	}
	fmt.Fprintln(stdout)
	return code
}

func compare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chipbench compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark declaration (bounds)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: chipbench compare [-spec FILE] DIR_A DIR_B")
		return 2
	}
	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "chipbench:", err)
		return 1
	}
	ok, err := bench.Compare(stdout, spec, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "chipbench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
