// Package bench is chipbench, the repository's benchmark: four workloads
// that drive the compiler, the compile daemon and the data-plane engines
// only through their public entry points, check every output, and report
// end-to-end metrics (untraced) or per-layer metrics (traced).
//
// The workloads and why each was chosen are documented in README.md; the
// metric names, units, directions and regression bounds are declared in
// the repository's BENCHMARK.json, which this package's tests keep in step
// with the catalog below.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Metric is one catalogued metric: its name and unit.
type Metric struct {
	Name string
	Unit string
}

// EndToEnd lists the metrics every untraced run reports. An operation is
// the workload's unit of work: one compile (table2, solver-bound), one
// daemon job (daemon), or one replay of a program's trace (replay, whose
// throughput counts packets).
var EndToEnd = []Metric{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"alloc_mb_per_op", "MB"},
}

// PerLayer lists the metrics every traced run reports. Layer names are
// module names; README.md maps each to the end-to-end metric it should
// move.
var PerLayer = []Metric{
	{"parser.parse_us_p50", "us"},
	{"sketch.hole_bits_max", "bits"},
	{"circuit.cnf_vars_peak", "count"},
	{"circuit.cnf_clauses_peak", "count"},
	{"circuit.gates_peak", "count"},
	{"cegis.iters", "count"},
	{"cegis.tests", "count"},
	{"cegis.synth_self_ms", "ms"},
	{"cegis.verify_self_ms", "ms"},
	{"cegis.verify_share", "ratio"},
	{"sat.solve_synth_ms", "ms"},
	{"sat.solve_verify_ms", "ms"},
	{"sat.solves", "count"},
	{"sat.conflicts", "count"},
	{"sat.decisions", "count"},
	{"sat.propagations", "count"},
	{"sat.restarts", "count"},
	{"sat.learnt", "count"},
	{"sat.props_per_s", "1/s"},
	{"core.attempts", "count"},
	{"core.attempt_self_ms", "ms"},
	{"core.compile_self_ms", "ms"},
	{"explain.runs", "count"},
	{"explain.share", "ratio"},
	{"interp.run_ns", "ns"},
	{"solcache.hit_ratio", "ratio"},
	{"solcache.lookup_share", "ratio"},
	{"server.queue_share", "ratio"},
	{"server.run_share", "ratio"},
	{"server.transport_share", "ratio"},
	{"server.throttled", "count"},
	{"linerate.build_us", "us"},
	{"linerate.ns_per_pkt", "ns"},
	{"linerate.sharded_mpps", "Mpps"},
	{"pisa.exec_ns_per_pkt", "ns"},
	{"bench.trace_overhead", "ratio"},
}

// Catalog returns the metrics a run reports: PerLayer when traced,
// EndToEnd otherwise.
func Catalog(traced bool) []Metric {
	if traced {
		return PerLayer
	}
	return EndToEnd
}

// Result is the outcome of one workload run.
type Result struct {
	Workload string
	Seed     int64
	Traced   bool
	// Attempted counts operations and correctness checks; Failed counts
	// the ones that failed (wrong verdict, oracle mismatch, timeout, error
	// or a job that did not finish done).
	Attempted int
	Failed    int
	// Failures holds the first few failure descriptions.
	Failures []string
	// Samples is the number of latency samples behind the percentiles.
	Samples int
	// Metrics holds every catalogued metric of the run, by name.
	Metrics map[string]float64
	// Info holds values reported next to the metrics but not gated.
	Info map[string]float64
	// Programs breaks a traced compile workload's time down per corpus
	// program (nil for untraced runs).
	Programs []ProgramLayers
}

// maxFailures bounds Result.Failures.
const maxFailures = 10

// tally counts attempted operations and failures for a Result.
type tally struct {
	attempted, failed int
	failures          []string
}

// check records one attempted operation; a non-nil err is a failure.
func (t *tally) check(err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.failures) < maxFailures {
		t.failures = append(t.failures, err.Error())
	}
}

// FailRatio is Failed over Attempted.
func (r *Result) FailRatio() float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// Correct reports whether the run attempted work and every check passed.
func (r *Result) Correct() bool { return r.Attempted > 0 && r.Failed == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Line is the one-line JSON summary a run prints last:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
func (r *Result) Line() ([]byte, error) {
	metrics := map[string]metricValue{}
	for _, m := range Catalog(r.Traced) {
		v, ok := r.Metrics[m.Name]
		if !ok {
			return nil, fmt.Errorf("bench: %s did not report %s", r.Workload, m.Name)
		}
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct(), r.Attempted, r.Failed, metrics})
}

// ParseLine decodes a Line back into its parts.
func ParseLine(data []byte) (correct bool, attempted, failed int, metrics map[string]float64, err error) {
	var l struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal(data, &l); err != nil {
		return false, 0, 0, nil, err
	}
	metrics = map[string]float64{}
	for k, v := range l.Metrics {
		metrics[k] = v.Value
	}
	return l.Correct, l.Attempted, l.Failed, metrics, nil
}

// Report renders the run's metrics one per line, by name with unit.
func (r *Result) Report() string {
	out := fmt.Sprintf("%s seed=%d attempted=%d failed=%d fail_ratio=%g samples=%d\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.FailRatio(), r.Samples)
	for _, m := range Catalog(r.Traced) {
		out += fmt.Sprintf("  %-26s %14.6g %s\n", m.Name, r.Metrics[m.Name], m.Unit)
	}
	for _, k := range sortedKeys(r.Info) {
		out += fmt.Sprintf("  %-26s %14.6g (not gated)\n", k, r.Info[k])
	}
	for _, f := range r.Failures {
		out += "  FAIL " + f + "\n"
	}
	return out
}

// MetricSpec is one metric declaration in BENCHMARK.json.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Spec is the part of BENCHMARK.json this package reads.
type Spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []MetricSpec `json:"end_to_end"`
	PerLayer []MetricSpec `json:"per_layer"`
}

// LoadSpec reads BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// Names returns the declared workload names in order.
func (s *Spec) Names() []string {
	out := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		out[i] = w.Name
	}
	return out
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
