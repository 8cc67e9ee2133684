// Package perfhist is the persistent half of the performance observatory:
// an append-only JSONL history of compile-effort records that outlives any
// single process. In-flight telemetry (internal/obs spans, Prometheus, SSE)
// answers "what is the compiler doing now"; this package answers "what did
// compiles cost last week, at that SHA, on that machine" — the memory the
// paper's compile-time claims are judged against across PRs.
//
// One Record is one measured compilation (or one bench iteration): run
// metadata identifying the machine and source revision, a flat map of named
// numeric samples, and optionally the full per-phase CompileProfile.
// Records append to a file opened by path (the -perf-history flags of
// chipmunkd and chipfuzz, chipbench's traced daemon pass, or
// core.Options.History); cmd/chipreport reads them back to render trends.
package perfhist

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Schema is the history record schema version, bumped on incompatible
// changes so trend tooling refuses to mix records it cannot compare.
const Schema = 1

// Meta identifies one measurement run: where (machine), when, and at what
// source revision the samples were taken. Every record in a run shares one
// Meta, so grouping by RunID (or GitSHA) recovers the run structure from a
// flat record stream.
type Meta struct {
	Schema     int    `json:"schema"`
	RunID      string `json:"run_id,omitempty"`
	Bench      string `json:"bench,omitempty"`
	GitSHA     string `json:"git_sha,omitempty"`
	TimeUnixNS int64  `json:"time_unix_ns"`
	GoVersion  string `json:"go_version,omitempty"`
	GOOS       string `json:"goos,omitempty"`
	GOARCH     string `json:"goarch,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	NumCPU     int    `json:"num_cpu,omitempty"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Host       string `json:"host,omitempty"`
}

// ShortSHA returns the abbreviated git SHA, or "unknown" when the run was
// measured outside a git checkout.
func (m Meta) ShortSHA() string {
	if len(m.GitSHA) >= 12 {
		return m.GitSHA[:12]
	}
	if m.GitSHA != "" {
		return m.GitSHA
	}
	return "unknown"
}

// Record is one measured compilation or bench iteration.
type Record struct {
	Meta    Meta   `json:"meta"`
	Program string `json:"program,omitempty"`
	// Samples is the flat metric map: deterministic effort counters
	// (iters, conflicts, decisions, propagations — identical across
	// machines at a fixed seed) next to machine-dependent wall-clock
	// entries (*_ms).
	Samples map[string]float64 `json:"samples"`
	// Profile optionally carries the full per-phase attribution the
	// samples were flattened from.
	Profile *obs.CompileProfile `json:"profile,omitempty"`
}

// CaptureMeta collects the run metadata once per process: git SHA (from
// CHIPMUNK_GIT_SHA or GITHUB_SHA, falling back to `git rev-parse HEAD`),
// toolchain, CPU model (best effort, /proc/cpuinfo), host, and a RunID
// unique enough to group this process's records.
func CaptureMeta(bench string) Meta {
	now := time.Now()
	m := Meta{
		Schema:     Schema,
		RunID:      fmt.Sprintf("%x-%d", now.UnixNano(), os.Getpid()),
		Bench:      bench,
		GitSHA:     gitSHA(),
		TimeUnixNS: now.UnixNano(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
	}
	if h, err := os.Hostname(); err == nil {
		m.Host = h
	}
	return m
}

func gitSHA() string {
	for _, env := range []string{"CHIPMUNK_GIT_SHA", "GITHUB_SHA"} {
		if sha := os.Getenv(env); sha != "" {
			return sha
		}
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// cpuModel reads the CPU model name from /proc/cpuinfo; empty on
// platforms without it (the field is informational, never load-bearing).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// Store appends records to a JSONL history file. All methods are safe for
// concurrent use (the daemon's job workers share one store), and a nil
// *Store is a valid no-op sink — callers thread it unconditionally.
type Store struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	meta Meta
}

// Open opens (creating if needed) the history file at path for appending.
// bench labels the run in the captured metadata.
func Open(path, bench string) (*Store, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Store{f: f, w: bufio.NewWriter(f), meta: CaptureMeta(bench)}, nil
}

// Meta returns the store's captured run metadata (zero for a nil store).
func (s *Store) Meta() Meta {
	if s == nil {
		return Meta{}
	}
	return s.meta
}

// Append writes one record. A zero rec.Meta is filled from the store's
// captured run metadata (the common case); records with explicit metadata
// pass through unchanged.
func (s *Store) Append(rec Record) error {
	if s == nil {
		return nil
	}
	if rec.Meta.Schema == 0 {
		rec.Meta = s.meta
	}
	if rec.Samples == nil {
		rec.Samples = map[string]float64{}
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return s.w.Flush()
}

// AppendProfile records one compile's profile under the program name — the
// convenience every compile path uses.
func (s *Store) AppendProfile(program string, p obs.CompileProfile) error {
	if s == nil {
		return nil
	}
	return s.Append(Record{Program: program, Samples: p.Samples(), Profile: &p})
}

// AppendSamples records a bare sample map (bench rows, fuzz campaign
// summaries) under the program name.
func (s *Store) AppendSamples(program string, samples map[string]float64) error {
	if s == nil {
		return nil
	}
	return s.Append(Record{Program: program, Samples: samples})
}

// Close flushes and closes the underlying file.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// --- Reading -----------------------------------------------------------------

// ReadPath reads history records from path: a JSONL history file, a
// versioned bench envelope (BENCH_*.json), or a directory of either
// (non-recursive, *.json and *.jsonl entries).
func ReadPath(path string) ([]Record, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if info.IsDir() {
		return ReadDir(path)
	}
	return ReadFile(path)
}

// ReadDir reads every *.json / *.jsonl file in dir, sorted by name so
// record order is deterministic.
func ReadDir(dir string) ([]Record, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if ext := filepath.Ext(e.Name()); ext == ".json" || ext == ".jsonl" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	var recs []Record
	for _, name := range names {
		rs, err := ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		recs = append(recs, rs...)
	}
	return recs, nil
}

// ReadFile reads one history file. JSONL streams (one Record per line) and
// single-object bench envelopes are both accepted; envelope rows are
// flattened into Records via their numeric fields, so old BENCH_*.json
// snapshots feed the same trend machinery as the JSONL history.
func ReadFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if trimmed == "" {
		return nil, nil
	}
	if strings.HasPrefix(trimmed, "{") && !strings.Contains(trimmed[:len(trimmed)-1], "\n{") {
		// A single JSON object: try the bench envelope shape first.
		if recs, ok := parseEnvelope([]byte(trimmed)); ok {
			return recs, nil
		}
	}
	var recs []Record
	for i, line := range strings.Split(trimmed, "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", i+1, err)
		}
		if rec.Meta.Schema != 0 && rec.Meta.Schema != Schema {
			return nil, fmt.Errorf("line %d: history schema %d, this build reads %d", i+1, rec.Meta.Schema, Schema)
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// BenchEnvelope is the unified bench-output schema: the pre-observatory
// {bench, rows} shape extended with a schema version and run metadata.
// Rows keep each benchmark's own field names so EXPERIMENTS.md tables
// reconcile unchanged.
type BenchEnvelope struct {
	Bench  string          `json:"bench"`
	Schema int             `json:"schema,omitempty"`
	Meta   Meta            `json:"meta,omitempty"`
	Rows   json.RawMessage `json:"rows"`
}

// WriteBenchFile writes rows under the versioned bench envelope with
// freshly captured run metadata.
func WriteBenchFile(path, bench string, rows any) error {
	raw, err := json.Marshal(rows)
	if err != nil {
		return err
	}
	env := BenchEnvelope{Bench: bench, Schema: Schema, Meta: CaptureMeta(bench), Rows: raw}
	data, err := json.MarshalIndent(env, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseEnvelope converts a bench envelope into flat Records: one per row,
// numeric row fields (and booleans, as 0/1) becoming samples keyed by their
// JSON name. Pre-observatory envelopes without meta/schema still parse.
func parseEnvelope(data []byte) ([]Record, bool) {
	var env BenchEnvelope
	if err := json.Unmarshal(data, &env); err != nil || env.Bench == "" || len(env.Rows) == 0 {
		return nil, false
	}
	var rows []map[string]any
	if err := json.Unmarshal(env.Rows, &rows); err != nil {
		return nil, false
	}
	meta := env.Meta
	if meta.Bench == "" {
		meta.Bench = env.Bench
	}
	recs := make([]Record, 0, len(rows))
	for _, row := range rows {
		rec := Record{Meta: meta, Samples: map[string]float64{}}
		for k, v := range row {
			switch v := v.(type) {
			case float64:
				rec.Samples[k] = v
			case bool:
				if v {
					rec.Samples[k] = 1
				}
			case string:
				if k == "program" {
					rec.Program = v
				}
			}
		}
		recs = append(recs, rec)
	}
	return recs, true
}
