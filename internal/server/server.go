// Package server implements compilation-as-a-service: an HTTP job API over
// a bounded work queue and worker pool, fronting core.Compile with the
// content-addressed solution cache (internal/solcache).
//
// The API surface:
//
//	POST /compile            submit a compilation job (JSON CompileRequest).
//	                         Returns 202 with the job's status, or the final
//	                         status directly when "wait" is set. 400 on a
//	                         parse or validation error, 429 when the queue
//	                         is full, 503 while draining.
//	GET  /jobs/{id}          poll a job's status.
//	GET  /jobs/{id}/events   Server-Sent Events stream of the job's live
//	                         progress (the job tracer's span starts and
//	                         ends, and its sat.progress notes from inside
//	                         long solves), ending with a "done" event that
//	                         carries the final status. Works for queued
//	                         jobs — events begin when the job starts.
//	GET  /healthz            liveness: 200 normally, 503 while draining,
//	                         with a JSON body (drain state, queue depth,
//	                         inflight count, uptime, job counters).
//	GET  /metrics            obs registry snapshot. JSON (expvar-style) by
//	                         default; Prometheus text format when the
//	                         Accept header asks for text/plain or
//	                         openmetrics.
//	GET  /metrics/prom       Prometheus text format unconditionally.
//
// Robustness properties: per-job timeouts, queue-full backpressure (429),
// context-propagated cancellation, and graceful drain — Shutdown lets
// in-flight jobs complete, rejects still-queued jobs, and leaves the
// listener to close cleanly.
//
// Observability: every job runs under its own obs.Tracer feeding both the
// SSE stream and a bounded flight recorder (internal/obs/flight); on
// timeout, failure, cancellation, or an infeasible verdict the recorder's
// tail is attached to the job status and, with Config.TraceDir set,
// dumped as JSONL into the job's trace directory. Jobs exceeding Config.SlowJobThreshold get a
// CPU profile for their remainder. Lifecycle events are logged through
// Config.Logger (log/slog) with job_id and fingerprint fields that join
// log lines, dumps, and streams on the same job.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/alu"
	"repro/internal/ast"
	"repro/internal/bpf"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/parser"
	"repro/internal/perfhist"
	"repro/internal/solcache"
	"repro/internal/word"
)

// Config configures a compile server.
type Config struct {
	// Workers is the worker-pool size. 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of accepted-but-unstarted jobs; a full
	// queue rejects submissions with 429. 0 means 64.
	QueueDepth int
	// JobTimeout bounds each compilation. 0 means 120s.
	JobTimeout time.Duration
	// MaxFinishedJobs caps how many finished jobs (done, error, or
	// rejected) remain pollable at /jobs/{id}; beyond it the oldest are
	// evicted so a long-running daemon's job table stays bounded. 0 means
	// 1024.
	MaxFinishedJobs int
	// JobParallelism caps the seed fanout a request may ask for
	// (CompileRequest.SeedFanout): how many hedge slots one job may run at
	// once. 0 or 1 means jobs always run the plain sequential search. See
	// Validate for the oversubscription guard against Workers *
	// JobParallelism.
	JobParallelism int
	// Cache, when non-nil, memoizes results across jobs.
	Cache *solcache.Cache
	// History, when non-nil, appends one performance-history record per
	// compiled job (internal/perfhist) — the daemon's contribution to the
	// compile-effort trajectory cmd/chipreport trends.
	History *perfhist.Store
	// Metrics receives queue/in-flight gauges and compilation counters.
	// Nil allocates a private registry.
	Metrics *obs.Registry
	// TraceDir, when set, gives each failed/timed-out job a directory
	// <TraceDir>/<jobID>/ holding its flight-recorder dump
	// (flight.jsonl) and, for slow jobs, a CPU profile (cpu.pprof).
	TraceDir string
	// SlowJobThreshold starts a CPU profile for the remainder of any job
	// still running after this long (requires TraceDir; at most one
	// profile at a time process-wide). 0 disables.
	SlowJobThreshold time.Duration
	// FlightCapacity bounds each job's flight-recorder ring (entries).
	// 0 means flight.DefaultCapacity.
	FlightCapacity int
	// Logger receives structured job-lifecycle logs carrying job_id and
	// fingerprint fields. Nil discards.
	Logger *slog.Logger
}

func (c *Config) workers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

func (c *Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 64
	}
	return c.QueueDepth
}

func (c *Config) jobTimeout() time.Duration {
	if c.JobTimeout <= 0 {
		return 120 * time.Second
	}
	return c.JobTimeout
}

func (c *Config) maxFinishedJobs() int {
	if c.MaxFinishedJobs <= 0 {
		return 1024
	}
	return c.MaxFinishedJobs
}

func (c *Config) jobParallelism() int {
	if c.JobParallelism <= 1 {
		return 1
	}
	return c.JobParallelism
}

func (c *Config) logger() *slog.Logger {
	if c.Logger == nil {
		return slog.New(slog.DiscardHandler)
	}
	return c.Logger
}

// Validate rejects configurations whose worst case oversubscribes the
// machine: Workers jobs each running JobParallelism hedge slots is fine
// up to 2x GOMAXPROCS (hedge slots wait out their stagger and are
// canceled by the first verdict), but beyond that the compile workers
// thrash each other's SAT solvers and every job slows down.
func (c *Config) Validate() error {
	cores := runtime.GOMAXPROCS(0)
	if load := c.workers() * c.jobParallelism(); load > 2*cores {
		return fmt.Errorf("server: %d workers x %d job parallelism = %d concurrent attempts oversubscribes %d cores by more than 2x; lower -workers or -job-parallelism", c.workers(), c.jobParallelism(), load, cores)
	}
	return nil
}

// CompileRequest is the JSON body of POST /compile. Source is required;
// everything else falls back to the quickstart defaults.
type CompileRequest struct {
	// Name labels the program in job status and traces.
	Name string `json:"name"`
	// Source is the Domino program text.
	Source string `json:"source"`
	// Target selects the compile backend: "pisa" (default) or "bpf".
	Target string `json:"target,omitempty"`
	// Width is the PHV width (containers / ALUs per stage). 0 means 2.
	Width int `json:"width,omitempty"`
	// MaxStages bounds iterative deepening. 0 means 4.
	MaxStages int `json:"max_stages,omitempty"`
	// ALU names the stateful ALU template (alu.KindByName). Empty means
	// if_else_raw.
	ALU string `json:"alu,omitempty"`
	// ConstBits is the immediate hole width. 0 means the ALU default.
	ConstBits int `json:"const_bits,omitempty"`
	// SynthWidth / VerifyWidth are the CEGIS tier widths (0 = defaults).
	SynthWidth  int `json:"synth_width,omitempty"`
	VerifyWidth int `json:"verify_width,omitempty"`
	// Seed drives CEGIS's random test inputs.
	Seed int64 `json:"seed,omitempty"`
	// SeedFanout asks for seed hedging with this many seed slots per
	// depth (core.Options.SeedFanout). The server clamps it to its per-job
	// budget (Config.JobParallelism); 0 or 1 runs the plain sequential
	// search.
	SeedFanout int `json:"seed_fanout,omitempty"`
	// Explain runs the infeasibility-forensics pass when the job's fresh
	// search concludes infeasible: the result then carries a structured
	// Explanation naming the binding resource dimension and the minimal
	// blamed constraint groups. Feasible and cached jobs are unaffected.
	Explain bool `json:"explain,omitempty"`
	// SymmetryBreak adds the grid's symmetry-breaking clauses to the
	// synthesis encoding (pisa target only; bpf ignores it).
	SymmetryBreak bool `json:"symmetry_break,omitempty"`
	// Wait blocks the HTTP request until the job finishes and returns the
	// final status instead of 202.
	Wait bool `json:"wait,omitempty"`
}

// CompileResult is the outcome portion of a finished job's status.
type CompileResult struct {
	Feasible bool `json:"feasible"`
	TimedOut bool `json:"timed_out"`
	// Cached reports a solution-cache hit (no CEGIS run).
	Cached    bool    `json:"cached"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Target echoes the backend that compiled the job ("pisa", "bpf").
	Target string `json:"target,omitempty"`
	// Resource usage (Figure 5's axes) when feasible. For the bpf target
	// Stages is the slot count and the ALU axes are zero.
	Stages          int `json:"stages,omitempty"`
	MaxALUsPerStage int `json:"max_alus_per_stage,omitempty"`
	TotalALUs       int `json:"total_alus,omitempty"`
	// Config is the synthesized hardware configuration when feasible.
	Config json.RawMessage `json:"config,omitempty"`
	// Winner names the hedge slot that produced the solution (e.g.
	// "d2.s1") and WastedConflicts totals its canceled siblings' solver
	// work; both are zero-valued for jobs without hedging.
	Winner          string `json:"winner,omitempty"`
	WastedConflicts int64  `json:"wasted_conflicts,omitempty"`
	// Explanation is the infeasibility-forensics report, present when the
	// request asked for Explain and the job concluded infeasible.
	Explanation *core.Explanation `json:"explanation,omitempty"`
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateError    = "error"
	StateRejected = "rejected" // drained from the queue during shutdown
)

// JobStatus is the JSON representation of a job.
type JobStatus struct {
	ID       string         `json:"id"`
	State    string         `json:"state"`
	Program  string         `json:"program"`
	Queued   time.Time      `json:"queued"`
	Started  *time.Time     `json:"started,omitempty"`
	Finished *time.Time     `json:"finished,omitempty"`
	Error    string         `json:"error,omitempty"`
	Result   *CompileResult `json:"result,omitempty"`
	// Fingerprint is the job's canonical-problem content address — the
	// correlation key shared by the daemon's log lines, flight dumps,
	// and solution-cache entries.
	Fingerprint string `json:"fingerprint,omitempty"`
	// Flight is the truncated tail of the job's flight recorder,
	// attached when the job timed out, failed, or was cancelled, so a
	// postmortem no longer requires re-running with tracing enabled.
	Flight []flight.Entry `json:"flight,omitempty"`
	// FlightDump is the server-side path of the full JSONL dump (set
	// only when the server runs with a trace directory).
	FlightDump string `json:"flight_dump,omitempty"`
}

type job struct {
	id   string
	req  CompileRequest
	prog *ast.Program
	opts core.Options
	fp   string // canonical-problem fingerprint
	feed *feed  // live event fan-out; set when the job is admitted

	mu         sync.Mutex
	state      string
	queued     time.Time
	started    time.Time
	finished   time.Time
	err        string
	result     *CompileResult
	flight     []flight.Entry
	flightDump string
	done       chan struct{}
}

func (j *job) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:          j.id,
		State:       j.state,
		Program:     j.prog.Name,
		Queued:      j.queued,
		Error:       j.err,
		Result:      j.result,
		Fingerprint: j.fp,
		Flight:      j.flight,
		FlightDump:  j.flightDump,
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	return st
}

// Server is a compile service: an HTTP handler plus the worker pool behind
// it. Create with New, serve Handler(), stop with Shutdown.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	logger  *slog.Logger
	started time.Time
	mux     *http.ServeMux

	mu       sync.Mutex // guards queue sends vs. close, jobs, finished, draining
	jobs     map[string]*job
	finished []string // finished job IDs, oldest first, capped by MaxFinishedJobs
	queue    chan *job
	draining bool
	nextID   int64

	workers sync.WaitGroup
	// baseCtx parents every job context; forceCancel aborts in-flight
	// jobs when a graceful drain runs out of time.
	baseCtx     context.Context
	forceCancel context.CancelFunc

	// compile is the job execution function; tests substitute stubs with
	// controllable latency.
	compile func(ctx context.Context, j *job) (*core.Report, error)

	now func() time.Time
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	s := &Server{
		cfg:     cfg,
		metrics: cfg.Metrics,
		logger:  cfg.logger(),
		started: time.Now(),
		jobs:    map[string]*job{},
		queue:   make(chan *job, cfg.queueDepth()),
		now:     time.Now,
	}
	if s.metrics == nil {
		s.metrics = obs.NewRegistry()
	}
	s.baseCtx, s.forceCancel = context.WithCancel(context.Background())
	s.compile = func(ctx context.Context, j *job) (*core.Report, error) {
		return core.Compile(ctx, j.prog, j.opts)
	}

	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /compile", s.handleCompile)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /metrics/prom", s.handleMetricsProm)

	for i := 0; i < cfg.workers(); i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics returns the server's registry (queue depth, in-flight jobs, job
// counters, plus whatever the compilations record).
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Shutdown drains the server: no new jobs are accepted, jobs still queued
// are rejected, and in-flight jobs run to completion. If ctx expires
// first, in-flight job contexts are cancelled (they finish quickly with
// TimedOut) and Shutdown returns ctx.Err after the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		// Reject everything still queued. Sends happen only under s.mu
		// with draining false, so draining and closing here cannot race
		// with a send.
	drain:
		for {
			select {
			case j := <-s.queue:
				s.finishRejected(j)
				s.retireLocked(j.id)
			default:
				break drain
			}
		}
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCancel()
		<-done
		return ctx.Err()
	}
}

func (s *Server) finishRejected(j *job) {
	j.mu.Lock()
	j.state = StateRejected
	j.err = "server shutting down before the job started"
	j.finished = s.now()
	j.mu.Unlock()
	close(j.done)
	j.feed.close(j.status())
	s.metrics.Counter("server.jobs.rejected").Add(1)
	s.logger.Warn("job rejected during drain", "job_id", j.id, "program", j.prog.Name)
}

// retireLocked enrolls a finished job in the eviction FIFO and evicts the
// oldest finished jobs beyond the retention cap, keeping the job table
// bounded on a long-running daemon. s.mu must be held.
func (s *Server) retireLocked(id string) {
	s.finished = append(s.finished, id)
	for len(s.finished) > s.cfg.maxFinishedJobs() {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

func (s *Server) retire(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.retireLocked(id)
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.queue {
		s.metrics.Gauge("server.queue.depth").Set(int64(len(s.queue)))
		s.mu.Lock()
		draining := s.draining
		s.mu.Unlock()
		if draining {
			// Pulled after drain began (racing the drain loop): still a
			// queued job, so reject rather than start it.
			s.finishRejected(j)
			s.retire(j.id)
			continue
		}
		s.run(j)
	}
}

func (s *Server) run(j *job) {
	s.metrics.Gauge("server.inflight").Add(1)

	j.mu.Lock()
	j.state = StateRunning
	j.started = s.now()
	waited := j.started.Sub(j.queued)
	j.mu.Unlock()
	s.metrics.Histogram("server.queue_wait_ms").Observe(waited.Milliseconds())
	j.feed.publish("state", StateRunning, 0, s.now().UnixNano(), nil)
	s.logger.Info("job started", "job_id", j.id, "program", j.prog.Name,
		"fingerprint", shortFP(j.fp), "queue_wait_ms", durMS(waited))

	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.jobTimeout())
	defer cancel()
	ctx = obs.ContextWithMetrics(ctx, s.metrics)

	// Every job gets its own tracer: the flight recorder keeps a bounded
	// tail for postmortems, and the SSE feed relays each record live,
	// sat.progress notes from inside long solves included.
	tracer := obs.NewTracer()
	ctx = obs.ContextWithTracer(ctx, tracer)
	rec := flight.New(s.cfg.FlightCapacity)
	rec.Attach(tracer)
	defer rec.Close()
	feedSub := tracer.Subscribe(j.feed.publishRecord, false)
	defer feedSub.Close()

	stopSlowWatch := s.startSlowJobWatch(j)
	rep, err := s.compile(ctx, j)
	stopSlowWatch()

	rec.Close()
	if err != nil || rep.TimedOut || !rep.Feasible {
		s.dumpFlight(j, rec)
	}

	j.mu.Lock()
	j.finished = s.now()
	elapsed := j.finished.Sub(j.started)
	if err != nil {
		j.state = StateError
		j.err = err.Error()
		s.metrics.Counter("server.jobs.failed").Add(1)
	} else {
		j.state = StateDone
		res := &CompileResult{
			Feasible:        rep.Feasible,
			TimedOut:        rep.TimedOut,
			Cached:          rep.Cached,
			ElapsedMS:       float64(rep.Elapsed.Microseconds()) / 1000,
			Target:          rep.Target,
			Winner:          rep.Winner,
			WastedConflicts: rep.WastedConflicts,
			Explanation:     rep.Explanation,
		}
		if rep.Explanation != nil {
			s.metrics.Counter("server.jobs.explained").Add(1)
		}
		if rep.Feasible {
			res.Stages = rep.Usage.Stages
			res.MaxALUsPerStage = rep.Usage.MaxALUsPerStage
			res.TotalALUs = rep.Usage.TotalALUs
			if bc, ok := rep.Artifact.(*bpf.Config); ok {
				res.Stages = bc.Spec.Slots
			}
			if cfg, merr := json.Marshal(rep.Artifact); merr == nil {
				res.Config = cfg
			}
		}
		j.result = res
		s.metrics.Counter("server.jobs.completed").Add(1)
	}
	j.mu.Unlock()
	s.metrics.Histogram("server.job_runtime_ms").Observe(elapsed.Milliseconds())
	// Leave the in-flight count before waking waiters, so a client that
	// saw its job finish never finds it still counted as running.
	s.metrics.Gauge("server.inflight").Add(-1)
	close(j.done)
	j.feed.close(j.status())
	s.logJobFinished(j, rep, err, elapsed)
	s.retire(j.id)
}

// logJobFinished emits the job's terminal log line, correlated by job_id
// and fingerprint with the flight dump and SSE stream.
func (s *Server) logJobFinished(j *job, rep *core.Report, err error, elapsed time.Duration) {
	attrs := []any{"job_id", j.id, "program", j.prog.Name,
		"fingerprint", shortFP(j.fp), "elapsed_ms", durMS(elapsed)}
	if err != nil {
		attrs = append(attrs, "error", err.Error())
		s.logger.Error("job failed", attrs...)
		return
	}
	attrs = append(attrs, "feasible", rep.Feasible, "cached", rep.Cached)
	if rep.Winner != "" {
		attrs = append(attrs, "winner", rep.Winner, "wasted_conflicts", rep.WastedConflicts)
	}
	if rep.Explanation != nil {
		attrs = append(attrs, "binding_dimension", rep.Explanation.Dimension,
			"blamed_groups", len(rep.Explanation.BlamedGroups))
	}
	if rep.TimedOut {
		s.logger.Warn("job timed out", attrs...)
		return
	}
	s.logger.Info("job finished", attrs...)
}

// dumpFlight preserves the flight recorder's tail after a timeout,
// failure, or cancellation: a truncated summary is attached to the job
// status, and with a trace directory configured the full tail is dumped
// as JSONL next to any CPU profile.
func (s *Server) dumpFlight(j *job, rec *flight.Recorder) {
	tail := rec.Tail()
	if len(tail) == 0 {
		return
	}
	// statusFlightTail bounds the summary attached to the job result so
	// status responses stay small; the JSONL dump holds the full ring.
	const statusFlightTail = 20
	sum := tail
	if len(sum) > statusFlightTail {
		sum = sum[len(sum)-statusFlightTail:]
	}
	j.mu.Lock()
	j.flight = append([]flight.Entry(nil), sum...)
	j.mu.Unlock()
	if s.cfg.TraceDir == "" {
		return
	}
	dir := filepath.Join(s.cfg.TraceDir, j.id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		s.logger.Error("flight dump failed", "job_id", j.id, "error", err.Error())
		return
	}
	path := filepath.Join(dir, "flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		s.logger.Error("flight dump failed", "job_id", j.id, "error", err.Error())
		return
	}
	werr := rec.WriteJSONL(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		s.logger.Error("flight dump failed", "job_id", j.id, "error", werr.Error())
		return
	}
	j.mu.Lock()
	j.flightDump = path
	j.mu.Unlock()
	s.logger.Warn("flight recorder dumped", "job_id", j.id,
		"fingerprint", shortFP(j.fp), "path", path,
		"entries", len(tail), "dropped", rec.Dropped())
}

// cpuProfileActive guards runtime/pprof's process-wide CPU profiler:
// when several jobs cross the slow threshold at once, only the first
// gets a profile.
var cpuProfileActive atomic.Bool

// startSlowJobWatch arms the slow-job profiler: if the job is still
// running after Config.SlowJobThreshold, a CPU profile of the job's
// remainder is captured into its trace directory. The returned stop
// function must be called when the job finishes.
func (s *Server) startSlowJobWatch(j *job) (stop func()) {
	if s.cfg.TraceDir == "" || s.cfg.SlowJobThreshold <= 0 {
		return func() {}
	}
	var (
		mu       sync.Mutex
		jobDone  bool
		profFile *os.File
	)
	timer := time.AfterFunc(s.cfg.SlowJobThreshold, func() {
		mu.Lock()
		defer mu.Unlock()
		if jobDone || !cpuProfileActive.CompareAndSwap(false, true) {
			return
		}
		dir := filepath.Join(s.cfg.TraceDir, j.id)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			cpuProfileActive.Store(false)
			return
		}
		f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
		if err != nil {
			cpuProfileActive.Store(false)
			return
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			cpuProfileActive.Store(false)
			return
		}
		profFile = f
		s.logger.Warn("slow job: capturing CPU profile",
			"job_id", j.id, "fingerprint", shortFP(j.fp),
			"threshold", s.cfg.SlowJobThreshold.String(), "path", f.Name())
	})
	return func() {
		timer.Stop()
		// If the timer callback is mid-flight, the lock makes us wait for
		// it, so a started profile is always stopped exactly once.
		mu.Lock()
		defer mu.Unlock()
		jobDone = true
		if profFile != nil {
			pprof.StopCPUProfile()
			profFile.Close()
			profFile = nil
			cpuProfileActive.Store(false)
		}
	}
}

// shortFP abbreviates a fingerprint for log lines; dumps and cache
// entries keep the full hash.
func shortFP(fp string) string {
	if len(fp) > 12 {
		return fp[:12]
	}
	return fp
}

func durMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// --- HTTP handlers -----------------------------------------------------------

// maxRequestBody bounds POST /compile bodies (a Domino program is tiny).
const maxRequestBody = 1 << 20

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	// Unknown fields are an error, not silently dropped: a misspelled or
	// retired option would otherwise compile something other than what the
	// client asked for.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	j, err := s.newJob(req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.nextID++
	j.id = fmt.Sprintf("j%06d", s.nextID)
	// The feed must exist before the job is visible to a worker, so a
	// subscriber attaching to a queued job never races its start.
	j.feed = newFeed(j.id)
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.metrics.Counter("server.jobs.throttled").Add(1)
		s.logger.Warn("job throttled: queue full", "program", j.prog.Name, "queue_depth", cap(s.queue))
		httpError(w, http.StatusTooManyRequests, "compile queue full (%d jobs)", cap(s.queue))
		return
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	j.feed.publish("state", StateQueued, 0, s.now().UnixNano(), nil)
	s.metrics.Counter("server.jobs.accepted").Add(1)
	s.metrics.Gauge("server.queue.depth").Set(int64(len(s.queue)))
	s.logger.Info("job accepted", "job_id", j.id, "program", j.prog.Name,
		"fingerprint", shortFP(j.fp), "seed_fanout", j.opts.SeedFanout)

	if req.Wait {
		select {
		case <-j.done:
		case <-r.Context().Done():
			// Client went away; the job keeps running and remains
			// pollable at /jobs/{id}.
		}
		writeJSON(w, http.StatusOK, j.status())
		return
	}
	writeJSON(w, http.StatusAccepted, j.status())
}

func (s *Server) newJob(req CompileRequest) (*job, error) {
	if req.Source == "" {
		return nil, fmt.Errorf("missing program source")
	}
	name := req.Name
	if name == "" {
		name = "anonymous"
	}
	prog, err := parser.Parse(name, req.Source)
	if err != nil {
		return nil, fmt.Errorf("parsing program: %w", err)
	}
	kindName := req.ALU
	if kindName == "" {
		kindName = "if_else_raw"
	}
	kind, err := alu.KindByName(kindName)
	if err != nil {
		return nil, err
	}
	switch req.Target {
	case "", "pisa", "bpf":
	default:
		return nil, fmt.Errorf("unknown target %q (want pisa or bpf)", req.Target)
	}
	width := req.Width
	if width <= 0 {
		width = 2
	}
	// Clamp the requested seed fanout to the server's per-job budget
	// rather than rejecting: callers tuned for a bigger machine still
	// compile, just with fewer hedge slots.
	fanout := min(req.SeedFanout, s.cfg.jobParallelism())
	j := &job{
		req:  req,
		prog: prog,
		opts: core.Options{
			Target:        req.Target,
			Width:         width,
			MaxStages:     req.MaxStages,
			StatelessALU:  alu.Stateless{ConstBits: req.ConstBits},
			StatefulALU:   alu.Stateful{Kind: kind, ConstBits: req.ConstBits},
			SynthWidth:    word.Width(req.SynthWidth),
			VerifyWidth:   word.Width(req.VerifyWidth),
			Seed:          req.Seed,
			Explain:       req.Explain,
			SymmetryBreak: req.SymmetryBreak,
			SeedFanout:    fanout,
			Cache:         s.cfg.Cache,
			History:       s.cfg.History,
		},
		state:  StateQueued,
		queued: s.now(),
		done:   make(chan struct{}),
	}
	j.fp = core.Fingerprint(prog, j.opts)
	return j, nil
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j, ok := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.status())
}

// LatencySummary is the percentile digest of one server-side latency
// histogram (estimates from power-of-two buckets, see
// obs.Histogram.Quantiles).
type LatencySummary struct {
	Count int64   `json:"count"`
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS int64   `json:"max_ms"`
}

func summarize(h *obs.Histogram) LatencySummary {
	snap := h.Snapshot()
	qs := h.Quantiles(0.5, 0.95, 0.99)
	return LatencySummary{Count: snap.Count, P50MS: qs[0], P95MS: qs[1], P99MS: qs[2], MaxMS: snap.Max}
}

// Health is the JSON body of GET /healthz: the same drain/load signal
// for load balancers (via the status code) and humans (via the fields).
type Health struct {
	Status        string  `json:"status"` // "ok" or "draining"
	Draining      bool    `json:"draining"`
	QueueDepth    int     `json:"queue_depth"`
	Inflight      int64   `json:"inflight"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	JobsAccepted  int64   `json:"jobs_accepted"`
	JobsCompleted int64   `json:"jobs_completed"`
	JobsFailed    int64   `json:"jobs_failed"`
	// QueueWait and JobRuntime digest the queue-wait and job-runtime
	// distributions since process start.
	QueueWait  LatencySummary `json:"queue_wait"`
	JobRuntime LatencySummary `json:"job_runtime"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	h := Health{
		Status:        "ok",
		Draining:      draining,
		QueueDepth:    len(s.queue),
		Inflight:      s.metrics.Gauge("server.inflight").Value(),
		UptimeSeconds: time.Since(s.started).Seconds(),
		JobsAccepted:  s.metrics.Counter("server.jobs.accepted").Value(),
		JobsCompleted: s.metrics.Counter("server.jobs.completed").Value(),
		JobsFailed:    s.metrics.Counter("server.jobs.failed").Value(),
		QueueWait:     summarize(s.metrics.Histogram("server.queue_wait_ms")),
		JobRuntime:    summarize(s.metrics.Histogram("server.job_runtime_ms")),
	}
	code := http.StatusOK
	if draining {
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, h)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.Gauge("server.queue.depth").Set(int64(len(s.queue)))
	s.cfg.Cache.Publish(s.metrics)
	// Content-negotiate: Prometheus scrapers ask for text/plain (or
	// OpenMetrics); everything else keeps the expvar-style JSON snapshot.
	if accept := r.Header.Get("Accept"); strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "openmetrics") {
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.Snapshot())
}

func (s *Server) handleMetricsProm(w http.ResponseWriter, _ *http.Request) {
	s.metrics.Gauge("server.queue.depth").Set(int64(len(s.queue)))
	s.cfg.Cache.Publish(s.metrics)
	s.writeProm(w)
}

func (s *Server) writeProm(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
