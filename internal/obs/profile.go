package obs

import (
	"fmt"
	"time"
)

// ProfileVersion is the CompileProfile schema version. Bump it whenever a
// field changes meaning or a field the history store depends on is
// removed, so trend tooling (internal/perfhist, cmd/chipreport) can
// refuse to compare incompatible records instead of silently mixing them.
const ProfileVersion = 1

// CompileProfile is one compilation's effort, rolled up from its span
// tree into a single flat, versioned record: where the wall-clock went
// (phase attribution), how hard the solver worked (conflicts, decisions,
// propagations), and how much of the work seed hedging threw away.
// It is the stable unit the performance history (internal/perfhist)
// stores and cmd/chipreport trends — in-flight telemetry (spans, SSE,
// Prometheus) answers "what is it doing now", the profile answers "what
// did this compile cost" in a form comparable across runs and SHAs.
//
// Wall-clock attribution notes:
//
//   - TotalMS is the compile span's wall-clock duration.
//   - SynthMS/VerifyMS/SolveMS sum over every CEGIS phase span, including
//     concurrently running hedge slots, so in a hedged compile their sum
//     can exceed TotalMS — they are CPU-effort-like, not wall-like.
//   - EncodeMS is the phase time spent outside SAT solving (circuit
//     construction, Tseitin CNF, test instantiation): SynthMS+VerifyMS
//     minus their sat.solve children.
//   - OtherMS is compile wall-clock not inside any phase or cache lookup
//     (parsing adjacency, canonicalization, config extraction,
//     cross-checking); clamped at zero in a hedged compile, where the
//     phase sums overlap in time.
//   - SketchMS, ExtractMS and CrossCheckMS are parts of OtherMS, summed
//     over the "cegis.sketch" (sketch build and domain constraints),
//     "cegis.extract" (model extraction) and "core.crosscheck" spans. On
//     the sequential path they add up to at most OtherMS; the rest of
//     OtherMS stays unattributed.
type CompileProfile struct {
	Version int    `json:"version"`
	Program string `json:"program,omitempty"`

	Feasible bool `json:"feasible"`
	TimedOut bool `json:"timed_out"`
	Cached   bool `json:"cached"`

	// Wall-clock attribution, milliseconds.
	TotalMS       float64 `json:"total_ms"`
	SynthMS       float64 `json:"synth_ms"`
	VerifyMS      float64 `json:"verify_ms"`
	SolveMS       float64 `json:"solve_ms"`
	SolveSynthMS  float64 `json:"solve_synth_ms"`
	SolveVerifyMS float64 `json:"solve_verify_ms"`
	EncodeMS      float64 `json:"encode_ms"`
	CacheLookupMS float64 `json:"cache_lookup_ms"`
	OtherMS       float64 `json:"other_ms"`
	SketchMS      float64 `json:"sketch_ms"`
	ExtractMS     float64 `json:"extract_ms"`
	CrossCheckMS  float64 `json:"crosscheck_ms"`

	// Solver effort, folded from the compile's span ends by the rule that
	// feeds a live Registry (sat.solves, sat.conflicts, …, cnf.vars,
	// cegis.iterations, core.attempts).
	Attempts     int   `json:"attempts"`
	Iters        int   `json:"iters"`
	Solves       int   `json:"solves"`
	Conflicts    int64 `json:"conflicts"`
	Decisions    int64 `json:"decisions"`
	Propagations int64 `json:"propagations"`
	Restarts     int64 `json:"restarts"`
	PeakCNFVars  int   `json:"peak_cnf_vars"`

	// Seed hedging, from the compile span's attributes (zero-valued
	// without hedging): the winning slot's label, and the conflicts and
	// wall-clock its canceled siblings spent.
	Winner          string  `json:"winner,omitempty"`
	WastedConflicts int64   `json:"wasted_conflicts,omitempty"`
	WastedMS        float64 `json:"wasted_ms,omitempty"`
}

// Samples flattens the profile into named numeric observations for the
// performance history, one map entry per metric. Booleans become 0/1 so a
// trend over many compiles reads as a rate. Deterministic solver-effort
// metrics (iters, conflicts, decisions, propagations, peak_cnf_vars) are
// identical across machines at a fixed seed; the *_ms entries are
// machine-dependent and reported for trend reading only.
func (p CompileProfile) Samples() map[string]float64 {
	b2f := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	return map[string]float64{
		"total_ms":         p.TotalMS,
		"synth_ms":         p.SynthMS,
		"verify_ms":        p.VerifyMS,
		"solve_ms":         p.SolveMS,
		"encode_ms":        p.EncodeMS,
		"cache_lookup_ms":  p.CacheLookupMS,
		"other_ms":         p.OtherMS,
		"attempts":         float64(p.Attempts),
		"iters":            float64(p.Iters),
		"solves":           float64(p.Solves),
		"conflicts":        float64(p.Conflicts),
		"decisions":        float64(p.Decisions),
		"propagations":     float64(p.Propagations),
		"restarts":         float64(p.Restarts),
		"peak_cnf_vars":    float64(p.PeakCNFVars),
		"wasted_conflicts": float64(p.WastedConflicts),
		"wasted_ms":        p.WastedMS,
		"feasible":         b2f(p.Feasible),
		"timed_out":        b2f(p.TimedOut),
		"cached":           b2f(p.Cached),
	}
}

// profNode is one span while rolling up a record stream, with its start
// and end attributes.
type profNode struct {
	name       string
	parent     int64
	startNS    int64
	endNS      int64
	start, end map[string]any
}

func (n *profNode) dur() time.Duration {
	if n.endNS < n.startNS {
		return 0
	}
	return time.Duration(n.endNS - n.startNS)
}

// attr getters tolerant of the JSON round trip (integers widen to
// float64 when a trace is re-read from JSONL).

func attrI64(m map[string]any, key string) int64 {
	switch v := m[key].(type) {
	case int64:
		return v
	case int:
		return int64(v)
	case float64:
		return int64(v)
	}
	return 0
}

func attrF64(m map[string]any, key string) float64 {
	f, _ := m[key].(float64)
	return f
}

func attrBool(m map[string]any, key string) bool {
	b, _ := m[key].(bool)
	return b
}

func attrStr(m map[string]any, key string) string {
	s, _ := m[key].(string)
	return s
}

// RollupCompile reduces a span record stream to the CompileProfile of the
// last complete "compile" span it contains. The records may come from a
// live Tracer (Records) or a decoded JSONL trace (ReadRecords); spans
// outside the compile subtree — a daemon job's surrounding spans, say —
// and notes are ignored. It errors when no compile span is present, so callers can
// distinguish "nothing was traced" from a zero-cost compile.
func RollupCompile(recs []Record) (CompileProfile, error) {
	nodes := map[int64]*profNode{}
	var compileID int64 = -1
	for _, rec := range recs {
		switch rec.Type {
		case RecordStart:
			nodes[rec.ID] = &profNode{name: rec.Name, parent: rec.Parent, startNS: rec.TimeNS, endNS: -1, start: rec.Attrs}
		case RecordEnd:
			n := nodes[rec.ID]
			if n == nil {
				continue
			}
			n.endNS, n.end = rec.TimeNS, rec.Attrs
			if n.name == "compile" {
				compileID = rec.ID
			}
		}
	}
	if compileID < 0 {
		return CompileProfile{}, fmt.Errorf("obs: no complete compile span in %d records", len(recs))
	}

	// inCompile reports whether a node sits in the chosen compile span's
	// subtree (the compile span itself included).
	inCompile := func(id int64) bool {
		for id != 0 {
			if id == compileID {
				return true
			}
			n := nodes[id]
			if n == nil {
				return false
			}
			id = n.parent
		}
		return false
	}
	// phaseOf walks ancestors to find the enclosing CEGIS phase of a
	// sat.solve span.
	phaseOf := func(id int64) string {
		for id != 0 {
			n := nodes[id]
			if n == nil {
				return ""
			}
			if n.name == "synth" || n.name == "verify" {
				return n.name
			}
			id = n.parent
		}
		return ""
	}

	root := nodes[compileID]
	p := CompileProfile{
		Version:         ProfileVersion,
		Program:         attrStr(root.start, "program"),
		Feasible:        attrBool(root.end, "feasible"),
		TimedOut:        attrBool(root.end, "timedout"),
		Cached:          attrBool(root.end, "cached"),
		TotalMS:         durMS(root.dur()),
		Winner:          attrStr(root.end, "winner"),
		WastedConflicts: attrI64(root.end, "wasted_conflicts"),
		WastedMS:        attrF64(root.end, "wasted_ms"),
	}

	// The effort counters come from the same fold Span.End applies to a
	// live registry.
	eff := NewRegistry()
	for id, n := range nodes {
		if n.endNS < 0 || !inCompile(id) {
			continue
		}
		eff.fold(n.name, n.end)
		switch n.name {
		case "synth":
			p.SynthMS += durMS(n.dur())
		case "verify":
			p.VerifyMS += durMS(n.dur())
		case "sat.solve":
			ms := durMS(n.dur())
			p.SolveMS += ms
			switch phaseOf(id) {
			case "synth":
				p.SolveSynthMS += ms
			case "verify":
				p.SolveVerifyMS += ms
			}
		case "solcache.lookup":
			p.CacheLookupMS += durMS(n.dur())
		case "cegis.sketch":
			p.SketchMS += durMS(n.dur())
		case "cegis.extract":
			p.ExtractMS += durMS(n.dur())
		case "core.crosscheck":
			p.CrossCheckMS += durMS(n.dur())
		}
	}
	count := func(metric string) int64 { return eff.Counter(metric).Value() }
	p.Attempts = int(count("core.attempts"))
	p.Iters = int(count("cegis.iterations"))
	p.Solves = int(count("sat.solves"))
	p.Conflicts = count("sat.conflicts")
	p.Decisions = count("sat.decisions")
	p.Propagations = count("sat.propagations")
	p.Restarts = count("sat.restarts")
	p.PeakCNFVars = int(eff.Gauge("cnf.vars").Value())

	if enc := p.SynthMS + p.VerifyMS - p.SolveMS; enc > 0 {
		p.EncodeMS = enc
	}
	if other := p.TotalMS - p.SynthMS - p.VerifyMS - p.CacheLookupMS; other > 0 {
		p.OtherMS = other
	}
	return p, nil
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Profile rolls the tracer's retained records up into the profile of the
// last complete compile span (see RollupCompile). A nil tracer errors
// like an empty record set.
func (t *Tracer) Profile() (CompileProfile, error) {
	return RollupCompile(t.Records())
}
