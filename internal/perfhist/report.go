package perfhist

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// runInfo is one run column in a trend table.
type runInfo struct {
	id     string
	label  string
	timeNS int64
}

// FormatTrend renders the history of one metric as a table of programs
// (rows) by runs (columns, oldest first, labelled by short SHA or run ID),
// each cell the per-run median. Records missing the metric are skipped.
func FormatTrend(recs []Record, metric string) string {
	// Column per run (RunID when present, else SHA+bench), ordered by time.
	type cell struct{ samples []float64 }
	runs := map[string]*runInfo{}
	table := map[string]map[string]*cell{} // program -> runID -> cell
	var programs []string
	for _, rec := range recs {
		v, ok := rec.Samples[metric]
		if !ok {
			continue
		}
		id := rec.Meta.RunID
		if id == "" {
			id = rec.Meta.ShortSHA() + "/" + rec.Meta.Bench
		}
		if runs[id] == nil {
			label := rec.Meta.ShortSHA()
			if len(label) > 7 {
				label = label[:7]
			}
			runs[id] = &runInfo{id: id, label: label, timeNS: rec.Meta.TimeUnixNS}
		}
		prog := rec.Program
		if prog == "" {
			prog = "(all)"
		}
		if table[prog] == nil {
			table[prog] = map[string]*cell{}
			programs = append(programs, prog)
		}
		if table[prog][id] == nil {
			table[prog][id] = &cell{}
		}
		table[prog][id].samples = append(table[prog][id].samples, v)
	}
	if len(runs) == 0 {
		return fmt.Sprintf("no samples for metric %q\n", metric)
	}
	ordered := make([]*runInfo, 0, len(runs))
	for _, r := range runs {
		ordered = append(ordered, r)
	}
	sort.Slice(ordered, func(i, j int) bool {
		if ordered[i].timeNS != ordered[j].timeNS {
			return ordered[i].timeNS < ordered[j].timeNS
		}
		return ordered[i].id < ordered[j].id
	})
	sort.Strings(programs)

	var sb strings.Builder
	fmt.Fprintf(&sb, "metric: %s (median per run)\n", metric)
	fmt.Fprintf(&sb, "%-20s", "PROGRAM")
	for _, r := range ordered {
		fmt.Fprintf(&sb, " %10s", r.label)
	}
	sb.WriteByte('\n')
	for _, prog := range programs {
		fmt.Fprintf(&sb, "%-20s", truncate(prog, 20))
		for _, r := range ordered {
			c := table[prog][r.id]
			if c == nil {
				fmt.Fprintf(&sb, " %10s", "-")
				continue
			}
			fmt.Fprintf(&sb, " %10s", formatNum(Median(c.samples)))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Metrics lists every sample name present in the records, sorted.
func Metrics(recs []Record) []string {
	seen := map[string]bool{}
	for _, rec := range recs {
		for name := range rec.Samples {
			seen[name] = true
		}
	}
	out := make([]string, 0, len(seen))
	for name := range seen {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func formatNum(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case v == math.Trunc(v) && math.Abs(v) < 1e9:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-1] + "…"
}
