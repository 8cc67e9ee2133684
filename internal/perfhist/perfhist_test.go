package perfhist

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/obs"
)

func TestStoreAppendReadBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	s, err := Open(path, "TestBench")
	if err != nil {
		t.Fatal(err)
	}
	if s.Meta().Bench != "TestBench" || s.Meta().Schema != Schema {
		t.Errorf("meta: %+v", s.Meta())
	}
	prof := obs.CompileProfile{Version: obs.ProfileVersion, Feasible: true, Conflicts: 99, TotalMS: 12.5}
	if err := s.AppendProfile("sampling", prof); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSamples("dep2", map[string]float64{"speedup": 2.5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	recs, err := ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("read %d records, want 2", len(recs))
	}
	r0 := recs[0]
	if r0.Program != "sampling" || r0.Meta.Bench != "TestBench" || r0.Meta.RunID == "" {
		t.Errorf("record 0: %+v", r0)
	}
	if r0.Samples["conflicts"] != 99 || r0.Samples["feasible"] != 1 {
		t.Errorf("record 0 samples: %v", r0.Samples)
	}
	if r0.Profile == nil || r0.Profile.Conflicts != 99 {
		t.Errorf("record 0 profile: %+v", r0.Profile)
	}
	if recs[1].Program != "dep2" || recs[1].Samples["speedup"] != 2.5 {
		t.Errorf("record 1: %+v", recs[1])
	}
	// Both records come from one process: one shared run.
	if recs[0].Meta.RunID != recs[1].Meta.RunID {
		t.Errorf("run IDs differ: %q vs %q", recs[0].Meta.RunID, recs[1].Meta.RunID)
	}
}

// A nil store (history capture disabled) must absorb every call.
func TestNilStore(t *testing.T) {
	var s *Store
	if err := s.Append(Record{}); err != nil {
		t.Error(err)
	}
	if err := s.AppendProfile("p", obs.CompileProfile{}); err != nil {
		t.Error(err)
	}
	if err := s.AppendSamples("p", nil); err != nil {
		t.Error(err)
	}
	if err := s.Close(); err != nil {
		t.Error(err)
	}
	if m := s.Meta(); m.Schema != 0 {
		t.Errorf("nil store meta: %+v", m)
	}
}

// The daemon's workers share one store; appends must interleave without
// corrupting lines.
func TestStoreConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hist.jsonl")
	s, err := Open(path, "race")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 50
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				s.AppendSamples("p", map[string]float64{"v": float64(w*n + i)})
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4*n {
		t.Errorf("read %d records, want %d", len(recs), 4*n)
	}
}

func TestBenchEnvelopeRoundTrip(t *testing.T) {
	type row struct {
		Program   string  `json:"program"`
		ColdMS    float64 `json:"cold_ms"`
		Speedup   float64 `json:"speedup"`
		Feasible  bool    `json:"feasible"`
		Conflicts int64   `json:"cold_conflicts"`
		Winner    string  `json:"winner"` // non-numeric: must not become a sample
	}
	path := filepath.Join(t.TempDir(), "BENCH_x.json")
	rows := []row{
		{Program: "sampling", ColdMS: 8.5, Speedup: 20, Feasible: true, Conflicts: 102, Winner: "d1s1"},
		{Program: "dep2", ColdMS: 100, Speedup: 1.5, Conflicts: 999},
	}
	if err := WriteBenchFile(path, "BenchmarkX", rows); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("envelope flattened to %d records, want 2", len(recs))
	}
	r := recs[0]
	if r.Program != "sampling" || r.Meta.Bench != "BenchmarkX" || r.Meta.Schema != Schema {
		t.Errorf("record 0: %+v", r)
	}
	if r.Samples["cold_ms"] != 8.5 || r.Samples["cold_conflicts"] != 102 || r.Samples["feasible"] != 1 {
		t.Errorf("record 0 samples: %v", r.Samples)
	}
	if _, ok := r.Samples["winner"]; ok {
		t.Error("string field leaked into samples")
	}
	if recs[1].Samples["feasible"] != 0 {
		t.Errorf("false bool must flatten to 0: %v", recs[1].Samples)
	}
}

// Pre-observatory BENCH_*.json files ({bench, rows} with no schema/meta)
// must still read, so old committed artifacts remain comparable.
func TestLegacyEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_portfolio.json")
	legacy := `{
  "bench": "BenchmarkPortfolio",
  "rows": [
    {"program": "sampling", "sequential_ms": 9.1, "portfolio_ms": 0.4, "speedup": 22.75, "identical_work": true, "stages": 1}
  ]
}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadPath(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("legacy envelope: %d records, want 1", len(recs))
	}
	if recs[0].Program != "sampling" || recs[0].Samples["speedup"] != 22.75 {
		t.Errorf("legacy record: %+v", recs[0])
	}
}

func TestReadDirMergesFiles(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(filepath.Join(dir, "a.jsonl"), "A")
	if err != nil {
		t.Fatal(err)
	}
	s1.AppendSamples("p", map[string]float64{"x": 1})
	s1.Close()
	if err := WriteBenchFile(filepath.Join(dir, "b.json"), "B", []map[string]any{{"program": "q", "y": 2.0}}); err != nil {
		t.Fatal(err)
	}
	// Non-history entries are ignored.
	os.WriteFile(filepath.Join(dir, "README.md"), []byte("# not history"), 0o644)

	recs, err := ReadPath(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("dir read: %d records, want 2", len(recs))
	}
}

func TestReadFileSchemaMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "future.jsonl")
	line := `{"meta":{"schema":99,"time_unix_ns":1},"program":"p","samples":{"x":1}}`
	if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPath(path); err == nil {
		t.Error("future-schema record must error, not silently mix")
	}
}
