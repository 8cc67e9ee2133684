package main

import (
	"path/filepath"
	"testing"

	"repro/internal/perfhist"
)

// writeHistory writes n records per program.
func writeHistory(t *testing.T, path string, n int) {
	t.Helper()
	s, err := perfhist.Open(path, "BenchmarkFixture")
	if err != nil {
		t.Fatal(err)
	}
	for _, prog := range []string{"sampling", "stateful_fw"} {
		for i := 0; i < n; i++ {
			if err := s.AppendSamples(prog, map[string]float64{
				"conflicts": 100 + float64(i),
				"total_ms":  8 + float64(i),
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTrendCommand(t *testing.T) {
	hist := filepath.Join(t.TempDir(), "hist.jsonl")
	writeHistory(t, hist, 4)

	if code := run([]string{"-history", hist, "-metric", "conflicts"}); code != 0 {
		t.Errorf("trend: exit %d, want 0", code)
	}
	if code := run([]string{"-history", hist}); code != 0 {
		t.Errorf("trend metric listing: exit %d, want 0", code)
	}
	if code := run([]string{"-history", hist, "-bench", "BenchmarkFixture", "-metric", "conflicts"}); code != 0 {
		t.Errorf("trend with matching filter: exit %d, want 0", code)
	}
	if code := run([]string{"-history", hist, "-bench", "NoSuchBench"}); code != 2 {
		t.Errorf("trend with empty filter: exit %d, want 2", code)
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		nil, // missing -history
		{"-bogus"},
		{"-history", "/nonexistent"},
		{"-history", "/nonexistent", "extra"},
		// A subcommand word is a stray argument.
		{"trend", "-history", "/nonexistent"},
	}
	for _, args := range cases {
		if code := run(args); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
	}
	if code := run([]string{"-h"}); code != 0 {
		t.Error("-h must exit 0")
	}
}
