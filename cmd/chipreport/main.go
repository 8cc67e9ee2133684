// Command chipreport renders the performance history (internal/perfhist)
// as trend tables.
//
// The history is append-only JSONL written by core.Compile (via
// Options.History), chipmunkd and chipfuzz (-perf-history), and
// chipbench's traced daemon pass; the versioned BENCH_*.json envelopes
// read the same way.
//
// Usage:
//
//	chipreport -history PATH [-metric NAME] [-bench NAME]
//
// PATH is a history file, a bench envelope, or a directory of either. The
// table shows one metric across runs (oldest column first, labelled by
// short git SHA), each cell the per-run median; with no -metric it lists
// the metrics present. -bench keeps only records from that benchmark.
// Exit status 2 means a usage error or an unreadable or empty history.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/perfhist"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("chipreport", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	history := fs.String("history", "", "history file or directory to read")
	metric := fs.String("metric", "", "metric to tabulate (empty lists available metrics)")
	bench := fs.String("bench", "", "restrict to records from this benchmark")
	switch err := fs.Parse(args); {
	case errors.Is(err, flag.ErrHelp):
		return 0
	case err != nil:
		return 2
	case fs.NArg() != 0:
		fmt.Fprintf(os.Stderr, "chipreport: unexpected arguments: %v\n", fs.Args())
		return 2
	case *history == "":
		fmt.Fprintln(os.Stderr, "usage: chipreport -history PATH [-metric NAME] [-bench NAME]")
		return 2
	}
	if err := report(*history, *metric, *bench); err != nil {
		fmt.Fprintln(os.Stderr, "chipreport:", err)
		return 2
	}
	return 0
}

func report(history, metric, bench string) error {
	recs, err := perfhist.ReadPath(history)
	if err != nil {
		return err
	}
	if bench != "" {
		var kept []perfhist.Record
		for _, r := range recs {
			if r.Meta.Bench == bench {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if len(recs) == 0 {
		return fmt.Errorf("no records in %s", history)
	}
	if metric == "" {
		fmt.Printf("%d records; metrics:\n", len(recs))
		for _, m := range perfhist.Metrics(recs) {
			fmt.Println("  " + m)
		}
		return nil
	}
	fmt.Print(perfhist.FormatTrend(recs, metric))
	return nil
}
