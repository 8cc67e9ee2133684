// Command superopt runs the §5.1 superoptimizer: it searches for a
// minimal instruction sequence implementing a stateless Domino packet
// transaction on a small packet-processor ISA.
//
// Usage:
//
//	superopt [-max-instrs 4] [-timeout 2m] program.domino
//
// Example (the paper's Figure 1 specification):
//
//	$ echo 'pkt.y = pkt.x * 5;' | superopt
//	minimal sequence: 2 instruction(s), found in 4ms
//	  v1 = shli %x, 2
//	  v2 = add v1, %x
//	  %y <- v2
//
// Each length, from 0 up to -max-instrs, is one run of the CEGIS loop
// that compiles Domino programs, over the SSA machine backend. Exit codes:
// 0 found, 1 error, 2 timeout, 3 infeasible within -max-instrs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/parser"
	"repro/internal/superopt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "superopt:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		maxInstrs = flag.Int("max-instrs", 4, "maximum sequence length to try")
		immBits   = flag.Int("imm-bits", 4, "immediate field width")
		timeout   = flag.Duration("timeout", 2*time.Minute, "search timeout")
		seed      = flag.Int64("seed", 1, "CEGIS seed")
	)
	flag.Parse()

	src, name, err := readSource(flag.Arg(0))
	if err != nil {
		return err
	}
	prog, err := parser.Parse(name, src)
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	res, err := superopt.Superoptimize(ctx, prog, superopt.Options{
		MaxInstrs: *maxInstrs,
		ImmBits:   *immBits,
		Seed:      *seed,
	})
	if err != nil {
		return err
	}
	switch {
	case res.TimedOut:
		fmt.Printf("TIMEOUT after %v (lengths tried: %v)\n", res.Elapsed.Round(time.Millisecond), res.Probes)
		os.Exit(2)
	case !res.Feasible:
		fmt.Printf("INFEASIBLE within %d instructions (%v)\n", *maxInstrs, res.Elapsed.Round(time.Millisecond))
		os.Exit(3)
	}
	fmt.Printf("minimal sequence: %d instruction(s), found in %v\n",
		res.Length, res.Elapsed.Round(time.Millisecond))
	fmt.Print(res.Seq)
	return nil
}

func readSource(path string) (src, name string, err error) {
	if path == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), "stdin", err
	}
	data, err := os.ReadFile(path)
	return string(data), path, err
}
