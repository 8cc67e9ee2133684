package bench

import (
	"context"
	"encoding/json"
	"slices"
	"testing"
	"time"
)

const specPath = "../BENCHMARK.json"

func loadSpec(t *testing.T) *Spec {
	t.Helper()
	spec, err := LoadSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestCatalogMatchesSpec: the metrics the code reports are exactly the
// ones BENCHMARK.json declares, with the same units, and every declared
// workload has a Go entry point.
func TestCatalogMatchesSpec(t *testing.T) {
	spec := loadSpec(t)
	for _, c := range []struct {
		name     string
		declared []MetricSpec
		catalog  []Metric
	}{{"end_to_end", spec.EndToEnd, EndToEnd}, {"per_layer", spec.PerLayer, PerLayer}} {
		var declared []Metric
		for _, m := range c.declared {
			declared = append(declared, Metric{m.Name, m.Unit})
		}
		if !slices.Equal(declared, c.catalog) {
			t.Errorf("%s: BENCHMARK.json declares %v, the catalog has %v", c.name, declared, c.catalog)
		}
	}
	names := spec.Names()
	slices.Sort(names)
	if got := sortedKeys(Workloads()); !slices.Equal(got, names) {
		t.Errorf("workloads: BENCHMARK.json declares %v, the code runs %v", names, got)
	}
}

// tinyWorkloads are the workloads at smoke-test sizes: one mutant per
// program, the two sub-second bpf infeasibility proofs, 40 daemon jobs and
// 20k packets per program.
func tinyWorkloads() map[string]Func {
	return map[string]Func{
		"table2":       Table2{Mutants: 1, Oracle: 1}.Run,
		"solver-bound": SolverBound{cases: []solverCase{solverCases[3], solverCases[4]}}.Run,
		"daemon":       Daemon{Jobs: 40, Pool: 4}.Run,
		"replay":       Replay{Packets: 20_000, InterpPackets: 5_000}.Run,
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// sizes: each run must pass every check and report every metric
// BENCHMARK.json declares, with its declared unit.
func TestWorkloadsSmoke(t *testing.T) {
	spec := loadSpec(t)
	tiny := tinyWorkloads()
	for _, name := range spec.Names() {
		for _, traced := range []bool{false, true} {
			declared := spec.EndToEnd
			if traced {
				declared = spec.PerLayer
			}
			res, err := tiny[name](context.Background(), Plan{Seed: 1, Setups: 1, Trace: traced, Out: t.TempDir()})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct() || res.FailRatio() != 0 {
				t.Errorf("%s traced=%v: %d of %d failed: %v", name, traced, res.Failed, res.Attempted, res.Failures)
			}
			line, err := res.Line()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			var got struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if len(got.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", name, traced, len(got.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, v, m.Unit)
				}
			}
			if !traced {
				for _, m := range declared {
					if got.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Metrics[m.Name].Value)
					}
				}
			}
		}
	}
}

// TestTracedCountersRepeat: a traced pass runs a fixed list of compiles,
// so the solver's effort counters repeat exactly at a given seed.
func TestTracedCountersRepeat(t *testing.T) {
	w := SolverBound{cases: []solverCase{solverCases[3], solverCases[4]}}
	var prev map[string]float64
	for i := 0; i < 2; i++ {
		res, err := w.Run(context.Background(), Plan{Seed: 3, Setups: 1, Measure: time.Second, Trace: true, Out: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for _, k := range []string{"sat.conflicts", "cegis.iters", "core.attempts", "sat.propagations"} {
				if res.Metrics[k] != prev[k] {
					t.Errorf("%s: %v then %v", k, prev[k], res.Metrics[k])
				}
			}
		}
		prev = res.Metrics
	}
}
