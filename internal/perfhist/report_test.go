package perfhist

import (
	"strings"
	"testing"
)

// mkrecs builds n records for (bench, program), one per sample set
// produced by gen(i).
func mkrecs(bench, program string, n int, gen func(i int) map[string]float64) []Record {
	var recs []Record
	for i := 0; i < n; i++ {
		recs = append(recs, Record{
			Meta:    Meta{Schema: Schema, Bench: bench, GitSHA: "deadbeefcafe", TimeUnixNS: int64(i)},
			Program: program,
			Samples: gen(i),
		})
	}
	return recs
}

// FormatTrend renders one metric as programs by runs, each cell a
// per-run median, and says so when no record carries the metric.
func TestFormatTrend(t *testing.T) {
	base := mkrecs("B", "sampling", 4, func(i int) map[string]float64 {
		return map[string]float64{"conflicts": 100, "total_ms": 8}
	})
	cur := mkrecs("B", "sampling", 4, func(i int) map[string]float64 {
		return map[string]float64{"conflicts": 200, "total_ms": 8}
	})
	trend := FormatTrend(append(base, cur...), "conflicts")
	if !strings.Contains(trend, "sampling") || !strings.Contains(trend, "deadbee") || !strings.Contains(trend, " 150\n") {
		t.Errorf("trend table:\n%s", trend)
	}
	if !strings.Contains(FormatTrend(base, "no_such_metric"), "no samples") {
		t.Error("missing-metric trend must say so")
	}
}
