package bench

import (
	"strings"
	"testing"
)

// writeRuns writes one untraced envelope per workload under a fresh
// directory, with the given end-to-end metrics scaled by scale[name]
// (default 1) and the given failure count.
func writeRuns(t *testing.T, scale map[string]float64, failed int) string {
	t.Helper()
	dir := t.TempDir()
	base := map[string]float64{
		"setup_s": 0.7, "latency_p50_ms": 30, "throughput_per_s": 10,
		"alloc_mb_per_op": 4,
	}
	for _, w := range []string{"table2", "daemon"} {
		r := &Result{Workload: w, Seed: 1, Attempted: 100, Failed: failed, Metrics: map[string]float64{}}
		for k, v := range base {
			if s, ok := scale[k]; ok {
				v *= s
			}
			r.Metrics[k] = v
		}
		if err := WriteResult(dir, r); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// tightSpec declares the end-to-end metrics with 10% bounds, so a 20%
// change is a regression whatever BENCHMARK.json's bounds are.
func tightSpec(t *testing.T) *Spec {
	spec := *loadSpec(t)
	spec.EndToEnd = append([]MetricSpec(nil), spec.EndToEnd...)
	for i := range spec.EndToEnd {
		spec.EndToEnd[i].Bound = 0.1
	}
	return &spec
}

func TestCompare(t *testing.T) {
	tight := tightSpec(t)
	declared := loadSpec(t)
	beyond := map[string]float64{}
	for _, m := range declared.EndToEnd {
		if m.Name == "latency_p50_ms" {
			beyond[m.Name] = 1 + m.Bound + 0.05
		}
	}
	base := writeRuns(t, nil, 0)
	for _, c := range []struct {
		name   string
		spec   *Spec
		dir    string
		wantOK bool
		flag   string
	}{
		{"identical runs pass", tight, writeRuns(t, nil, 0), true, ""},
		{"a 20% slower median fails", tight, writeRuns(t, map[string]float64{"latency_p50_ms": 1.2}, 0), false, "latency_p50_ms"},
		{"20% less throughput fails", tight, writeRuns(t, map[string]float64{"throughput_per_s": 0.8}, 0), false, "throughput_per_s"},
		{"a faster run passes", tight, writeRuns(t, map[string]float64{"latency_p50_ms": 0.5, "throughput_per_s": 2}, 0), true, ""},
		{"a higher fail_ratio fails", tight, writeRuns(t, nil, 1), false, "fail_ratio"},
		{"a change beyond a BENCHMARK.json bound fails", declared, writeRuns(t, beyond, 0), false, "latency_p50_ms"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var out strings.Builder
			ok, err := Compare(&out, c.spec, base, c.dir)
			if err != nil {
				t.Fatal(err)
			}
			if ok != c.wantOK {
				t.Fatalf("ok = %v, want %v\n%s", ok, c.wantOK, out.String())
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.Contains(line, "REGRESSION") != (c.flag != "" && strings.Contains(line, c.flag)) {
					t.Fatalf("unexpected regression flags:\n%s", out.String())
				}
			}
		})
	}
}
