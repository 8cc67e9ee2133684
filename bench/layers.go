package bench

import (
	"bufio"
	"encoding/json"
	"os"

	"repro/internal/obs"
)

// layerTimes is compile time split by layer, in milliseconds, as the
// compiles' profiles (obs.RollupCompile) give it. The fields other than
// Wall sum to the compile spans' wall time.
type layerTimes struct {
	Wall float64 // compile span wall time
	// AttemptSelf and CompileSelf are the time outside every CEGIS phase,
	// cache lookup and explanation: sketch build, initial-test encoding,
	// model extraction and crossCheck. A profile does not split it by
	// span, so it is AttemptSelf in a compile that searched and
	// CompileSelf in one answered from the cache, where it is the cache
	// bookkeeping and the crossCheck of the stored configuration.
	AttemptSelf, CompileSelf float64
	// SynthSelf and VerifySelf are the CEGIS phases minus their SAT
	// solves: circuit construction and CNF encoding.
	SynthSelf, VerifySelf float64
	// SolveSynth and SolveVerify are sat.solve spans by enclosing phase.
	SolveSynth, SolveVerify float64
	Lookup                  float64 // solcache.lookup
	Explain                 float64 // infeasibility forensics
}

func (l *layerTimes) add(o layerTimes) {
	l.Wall += o.Wall
	l.CompileSelf += o.CompileSelf
	l.AttemptSelf += o.AttemptSelf
	l.SynthSelf += o.SynthSelf
	l.VerifySelf += o.VerifySelf
	l.SolveSynth += o.SolveSynth
	l.SolveVerify += o.SolveVerify
	l.Lookup += o.Lookup
	l.Explain += o.Explain
}

// selfSum adds up every layer's time.
func (l layerTimes) selfSum() float64 {
	return l.CompileSelf + l.AttemptSelf + l.SynthSelf + l.VerifySelf +
		l.SolveSynth + l.SolveVerify + l.Lookup + l.Explain
}

// profileLayers splits one compile's profile by layer. explainMS is the
// compile's explain span time: the forensics pass runs outside every CEGIS
// phase span, so the profile counts it in OtherMS.
func profileLayers(p obs.CompileProfile, explainMS float64) layerTimes {
	lt := layerTimes{
		Wall:        p.TotalMS,
		SynthSelf:   max(0, p.SynthMS-p.SolveSynthMS),
		VerifySelf:  max(0, p.VerifyMS-p.SolveVerifyMS),
		SolveSynth:  p.SolveSynthMS,
		SolveVerify: p.SolveVerifyMS,
		Lookup:      p.CacheLookupMS,
		Explain:     explainMS,
	}
	if other := max(0, p.OtherMS-explainMS); p.Cached {
		lt.CompileSelf = other
	} else {
		lt.AttemptSelf = other
	}
	return lt
}

// explainMS sums the wall time of the explain spans in recs.
func explainMS(recs []obs.Record) float64 {
	starts := map[int64]int64{}
	var ns int64
	for _, r := range recs {
		switch {
		case r.Type == obs.RecordStart && r.Name == "explain":
			starts[r.ID] = r.TimeNS
		case r.Type == obs.RecordEnd:
			if t0, ok := starts[r.ID]; ok {
				ns += r.TimeNS - t0
			}
		}
	}
	return float64(ns) / 1e6
}

// metrics reports the time-split per-layer metrics.
func (l layerTimes) metrics(m map[string]float64) {
	m["cegis.synth_self_ms"] = l.SynthSelf
	m["cegis.verify_self_ms"] = l.VerifySelf
	m["cegis.verify_share"] = ratio(l.VerifySelf+l.SolveVerify, l.SynthSelf+l.SolveSynth+l.VerifySelf+l.SolveVerify)
	m["sat.solve_synth_ms"] = l.SolveSynth
	m["sat.solve_verify_ms"] = l.SolveVerify
	m["core.attempt_self_ms"] = l.AttemptSelf
	m["core.compile_self_ms"] = l.CompileSelf
	m["explain.share"] = ratio(l.Explain, l.Wall)
	m["solcache.lookup_share"] = ratio(l.Lookup, l.Wall)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ProgramLayers is one corpus program's compile time by layer in a traced
// run, and which layer dominates it.
type ProgramLayers struct {
	Program     string  `json:"program"`
	WallMS      float64 `json:"wall_ms"`
	SynthSATMS  float64 `json:"synth_sat_ms"`
	VerifySATMS float64 `json:"verify_sat_ms"`
	// EncodeMS is the CEGIS phases' time outside SAT solving.
	EncodeMS float64 `json:"encode_ms"`
	// OutsideMS is the compile's time outside every CEGIS phase, cache
	// lookup and explanation.
	OutsideMS float64 `json:"outside_cegis_ms"`
	ExplainMS float64 `json:"explain_ms"`
	LookupMS  float64 `json:"lookup_ms"`
	Dominant  string  `json:"dominant"`
}

// programLayers tabulates per-program layer times, sorted by program.
func programLayers(by map[string]layerTimes) []ProgramLayers {
	var out []ProgramLayers
	for _, prog := range sortedKeys(by) {
		l := by[prog]
		p := ProgramLayers{
			Program:     prog,
			WallMS:      l.Wall,
			SynthSATMS:  l.SolveSynth,
			VerifySATMS: l.SolveVerify,
			EncodeMS:    l.SynthSelf + l.VerifySelf,
			OutsideMS:   l.CompileSelf + l.AttemptSelf,
			ExplainMS:   l.Explain,
			LookupMS:    l.Lookup,
		}
		best := 0.0
		for _, c := range []struct {
			name string
			v    float64
		}{{"synth_sat", p.SynthSATMS}, {"verify_sat", p.VerifySATMS}, {"encode", p.EncodeMS},
			{"outside_cegis", p.OutsideMS}, {"explain", p.ExplainMS}, {"lookup", p.LookupMS}} {
			if c.v > best {
				best, p.Dominant = c.v, c.name
			}
		}
		out = append(out, p)
	}
	return out
}

// effort sums the pipeline's registry counters over compiles and keeps
// the peaks of its size gauges.
type effort struct {
	solves, conflicts, decisions, propagations, restarts, learnt, solveNS int64
	iters, tests, attempts, explains                                      int64
	cnfVars, cnfClauses, gates, holeBits                                  int64
	hits, misses, shared, throttled                                       int64
}

// addRegistry folds one registry into the totals. sketch.hole_bits is a
// last-value gauge, so callers that share one registry across compiles
// must sample it with notePeaks after each compile instead.
func (e *effort) addRegistry(r *obs.Registry) {
	c := func(name string) int64 { return r.Counter(name).Value() }
	e.solves += c("sat.solves")
	e.conflicts += c("sat.conflicts")
	e.decisions += c("sat.decisions")
	e.propagations += c("sat.propagations")
	e.restarts += c("sat.restarts")
	e.learnt += c("sat.learnt")
	e.solveNS += c("sat.solve_ns")
	e.iters += c("cegis.iterations")
	e.tests += c("cegis.tests")
	e.attempts += c("core.attempts")
	e.explains += c("explain.runs")
	e.hits += c("solcache.hits")
	e.misses += c("solcache.misses")
	e.shared += c("solcache.shared")
	e.throttled += c("server.jobs.throttled")
	e.notePeaks(r)
}

// notePeaks raises the size peaks to the registry's current gauges.
func (e *effort) notePeaks(r *obs.Registry) {
	g := func(name string) int64 { return r.Gauge(name).Value() }
	e.cnfVars = max(e.cnfVars, g("cnf.vars"))
	e.cnfClauses = max(e.cnfClauses, g("cnf.clauses"))
	e.gates = max(e.gates, g("circuit.gates"))
	e.holeBits = max(e.holeBits, g("sketch.hole_bits"))
}

// metrics reports the counter-based per-layer metrics.
func (e *effort) metrics(m map[string]float64) {
	m["sketch.hole_bits_max"] = float64(e.holeBits)
	m["circuit.cnf_vars_peak"] = float64(e.cnfVars)
	m["circuit.cnf_clauses_peak"] = float64(e.cnfClauses)
	m["circuit.gates_peak"] = float64(e.gates)
	m["cegis.iters"] = float64(e.iters)
	m["cegis.tests"] = float64(e.tests)
	m["sat.solves"] = float64(e.solves)
	m["sat.conflicts"] = float64(e.conflicts)
	m["sat.decisions"] = float64(e.decisions)
	m["sat.propagations"] = float64(e.propagations)
	m["sat.restarts"] = float64(e.restarts)
	m["sat.learnt"] = float64(e.learnt)
	m["sat.props_per_s"] = 0
	if e.solveNS > 0 {
		m["sat.props_per_s"] = float64(e.propagations) / (float64(e.solveNS) / 1e9)
	}
	m["core.attempts"] = float64(e.attempts)
	m["explain.runs"] = float64(e.explains)
	m["solcache.hit_ratio"] = ratio(float64(e.hits), float64(e.hits+e.misses+e.shared))
	m["server.throttled"] = float64(e.throttled)
}

// traceSink merges the records of many tracers into one id space, so a
// traced run's trace file is a single well-formed span stream.
type traceSink struct {
	recs []obs.Record
	next int64
}

func (s *traceSink) add(recs []obs.Record) {
	base, top := s.next, s.next
	for _, r := range recs {
		r.ID += base
		if r.Parent != 0 {
			r.Parent += base
		}
		top = max(top, r.ID)
		s.recs = append(s.recs, r)
	}
	s.next = top
}

// writeJSONL writes the merged records, one JSON object per line.
func (s *traceSink) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, r := range s.recs {
		if err := enc.Encode(r); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
