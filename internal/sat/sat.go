// Package sat implements a conflict-driven clause-learning (CDCL) boolean
// satisfiability solver.
//
// This is the solver substrate that stands in for the two external engines
// the Chipmunk paper depends on: the SAT core inside the SKETCH synthesizer
// (used for the synthesis phase of CEGIS, Equation 2 of the paper) and the
// Z3 theorem prover (used for the widened verification phase, Equation 3).
// Both phases of CEGIS reduce to SAT once the bit-vector circuits are
// bit-blasted (internal/circuit performs the Tseitin transformation), so a
// single sound and complete SAT solver serves for both.
//
// The design follows MiniSat: two-literal watching for unit propagation,
// VSIDS variable activity with exponential decay, first-UIP conflict
// analysis with clause learning and non-chronological backjumping, Luby
// restarts, learnt-clause database reduction, and phase saving. Incremental
// solving under assumptions is supported so callers can reuse a clause
// database across related queries.
package sat

import (
	"errors"
	"fmt"
	"time"
)

// Var is a boolean variable index. Variables are allocated densely from 0.
type Var int32

// Lit is a literal: a variable or its negation, encoded as var<<1|sign with
// sign==1 meaning negated. The zero-adjacent encoding keeps watch lists and
// assignment lookups branch-free.
type Lit int32

// MkLit builds a literal from a variable and a sign (true = negated).
func MkLit(v Var, neg bool) Lit {
	l := Lit(v << 1)
	if neg {
		l |= 1
	}
	return l
}

// PosLit returns the positive literal of v.
func PosLit(v Var) Lit { return Lit(v << 1) }

// NegLit returns the negative literal of v.
func NegLit(v Var) Lit { return Lit(v<<1) | 1 }

// Var returns the literal's variable.
func (l Lit) Var() Var { return Var(l >> 1) }

// Neg reports whether the literal is negated.
func (l Lit) Neg() bool { return l&1 == 1 }

// Not returns the complement literal.
func (l Lit) Not() Lit { return l ^ 1 }

// String renders the literal in DIMACS style (1-based, minus for negation).
func (l Lit) String() string {
	if l.Neg() {
		return fmt.Sprintf("-%d", l.Var()+1)
	}
	return fmt.Sprintf("%d", l.Var()+1)
}

// lbool is a three-valued boolean: true, false, or undefined.
type lbool int8

const (
	lTrue  lbool = 0
	lFalse lbool = 1
	lUndef lbool = 2
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver was interrupted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found; read it with Value.
	Sat
	// Unsat means the formula (under the given assumptions) is
	// unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrBudget is returned by SolveWithBudget when the conflict budget is
// exhausted before a result is determined.
var ErrBudget = errors.New("sat: conflict budget exhausted")

// ErrStopped is returned by SolveWithBudget when the caller-installed stop
// hook (SetStop) reported true mid-search. The solver state remains valid:
// a later Solve call resumes from the same clause database.
var ErrStopped = errors.New("sat: solve stopped by caller")

// stopCheckInterval is how many conflicts run between stop-hook polls — a
// much finer grain than the budgeted-chunk fallback, so a cancelled
// hedge slot abandons its solve almost immediately.
const stopCheckInterval = 256

// clauseRef indexes the solver's clause headers. The special value
// refUndef marks "no reason" (decision variables). Refs are stable for the
// clause's lifetime: arena compaction moves literals, never headers.
type clauseRef int32

const refUndef clauseRef = -1

// clause is the pointer-free header of a disjunction: its literals live in
// the solver's flat literal arena at [start, start+size), MiniSat style, so
// loading a clause appends to one []Lit instead of allocating a slice and
// the garbage collector never scans the clause database.
type clause struct {
	start, size int32
	activity    float64
	learnt      bool
	deleted     bool
}

// watcher pairs a watched clause with a "blocker" literal whose truth lets
// propagation skip the clause without touching its literal array.
type watcher struct {
	ref     clauseRef
	blocker Lit
}

// Stats reports cumulative solver counters, used by the evaluation harness
// to report synthesis effort alongside wall-clock time.
type Stats struct {
	Decisions     int64
	Propagations  int64
	Conflicts     int64
	Restarts      int64
	Learnt        int64
	DeletedLearnt int64
	// SolveNS is cumulative wall-clock nanoseconds spent inside Solve /
	// SolveWithBudget — the in-solver share of a compilation, as opposed
	// to encoding time spent building circuits and loading clauses. The
	// performance observatory uses the delta to attribute each phase's
	// time to "solve" vs "encode" even when no tracer is installed.
	SolveNS int64
	MaxVar  int
	Clauses int
}

// Sub returns the counter-wise difference s - o. MaxVar and Clauses are
// levels rather than counters, so they carry s's current values.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Decisions:     s.Decisions - o.Decisions,
		Propagations:  s.Propagations - o.Propagations,
		Conflicts:     s.Conflicts - o.Conflicts,
		Restarts:      s.Restarts - o.Restarts,
		Learnt:        s.Learnt - o.Learnt,
		DeletedLearnt: s.DeletedLearnt - o.DeletedLearnt,
		SolveNS:       s.SolveNS - o.SolveNS,
		MaxVar:        s.MaxVar,
		Clauses:       s.Clauses,
	}
}

// Solver is a CDCL SAT solver. The zero value is not usable; create one
// with New.
type Solver struct {
	clauses []clause // headers; learnt and problem clauses interleaved
	arena   []Lit    // every clause's literals, in header order
	wasted  int      // arena literals owned by deleted clauses
	learnts []clauseRef

	watches [][]watcher // indexed by Lit
	slab    []watcher   // backing store for new watch lists

	assign   []lbool // indexed by Var
	level    []int32 // decision level per var
	reason   []clauseRef
	polarity []bool // phase saving: last assigned sign

	trail    []Lit
	trailLim []int32 // decision-level boundaries in trail
	qhead    int

	activity []float64
	varInc   float64
	order    *varHeap

	claInc float64

	seen     []bool    // scratch for conflict analysis
	analyzeT []Lit     // scratch
	conflLit []Lit     // scratch learnt clause
	acts     []float64 // scratch for reduceDB's median activity

	model []lbool // snapshot of the assignment at the last Sat result

	ok    bool // false once a top-level conflict proves UNSAT
	stats Stats
	mark  Stats // StatsDelta baseline: counters as of the previous call

	progressEvery int64
	progressFn    func(Stats)

	stopFn  func() bool // polled every stopCheckInterval conflicts
	stopped bool        // set by search when stopFn fired

	assumptions []Lit
	core        []Lit // assumption subset blamed for the last Unsat
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc: 1.0,
		claInc: 1.0,
		ok:     true,
	}
	s.order = newVarHeap(&s.activity)
	return s
}

// Reset returns the solver to exactly the state New produces — no
// variables, clauses, counters, hooks or model — while keeping the
// capacity of every internal array, so a caller issuing many independent
// queries (CEGIS verification) stops re-growing a solver from zero each
// time. A Reset solver makes the same decisions as a New one.
func (s *Solver) Reset() {
	for i := range s.watches {
		s.watches[i] = s.watches[i][:0]
	}
	*s = Solver{
		clauses:  s.clauses[:0],
		arena:    s.arena[:0],
		learnts:  s.learnts[:0],
		watches:  s.watches[:0],
		slab:     s.slab,
		assign:   s.assign[:0],
		level:    s.level[:0],
		reason:   s.reason[:0],
		polarity: s.polarity[:0],
		trail:    s.trail[:0],
		trailLim: s.trailLim[:0],
		activity: s.activity[:0],
		varInc:   1.0,
		order:    s.order,
		claInc:   1.0,
		seen:     s.seen[:0],
		analyzeT: s.analyzeT[:0],
		conflLit: s.conflLit[:0],
		acts:     s.acts[:0],
		model:    s.model[:0],
		ok:       true,
		core:     s.core[:0],
	}
	s.order.reset()
}

// NewVar allocates and returns a fresh variable.
func (s *Solver) NewVar() Var {
	v := Var(len(s.assign))
	s.assign = append(grow(s.assign, 1), lUndef)
	s.level = append(grow(s.level, 1), 0)
	s.reason = append(grow(s.reason, 1), refUndef)
	s.polarity = append(grow(s.polarity, 1), true) // default phase: false (negated)
	s.activity = append(grow(s.activity, 1), 0)
	s.seen = append(grow(s.seen, 1), false)
	n := len(s.watches)
	s.watches = grow(s.watches, 2)[:n+2]
	for i := n; i < n+2; i++ {
		// A list a Reset emptied keeps its capacity; a new one starts in
		// the shared slab.
		if cap(s.watches[i]) == 0 {
			s.watches[i] = s.newWatchList()
		}
	}
	s.order.insert(v)
	s.stats.MaxVar = len(s.assign)
	return v
}

// Watch lists start with watchInit slots carved from a shared slab, so a
// freshly loaded formula does not pay one allocation per literal per
// doubling; a list that outgrows its slots is moved out by append as
// usual. Slabs double from 16 lists' worth up to maxWatchSlab watchers, so
// a tiny solver stays tiny.
const (
	watchInit    = 4
	maxWatchSlab = 4096
)

func (s *Solver) newWatchList() []watcher {
	if len(s.slab)+watchInit > cap(s.slab) {
		s.slab = make([]watcher, 0, min(max(2*cap(s.slab), 16*watchInit), maxWatchSlab))
	}
	n := len(s.slab)
	s.slab = s.slab[:n+watchInit]
	return s.slab[n : n : n+watchInit]
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return len(s.assign) }

// NumClauses returns the number of live problem clauses.
func (s *Solver) NumClauses() int { return s.stats.Clauses }

// Stats returns a snapshot of the solver counters.
func (s *Solver) Stats() Stats { return s.stats }

// StatsDelta returns the counters accumulated since the previous
// StatsDelta call (or since creation, on the first call) and advances the
// baseline. Because Stats is cumulative across incremental Solve calls,
// this is how callers attribute effort to an individual solve: CEGIS reads
// one delta per synthesis-phase query against its persistent solver. The
// deltas of successive calls sum to the cumulative snapshot (MaxVar and
// Clauses, being levels, carry the current values instead).
func (s *Solver) StatsDelta() Stats {
	d := s.stats.Sub(s.mark)
	s.mark = s.stats
	return d
}

// SetProgress registers fn to be invoked with a counter snapshot every
// `every` conflicts during search, so long solves (the paper's hour-long
// flowlet mutants) remain observable from outside. every <= 0 or a nil fn
// disables progress reporting.
func (s *Solver) SetProgress(every int64, fn func(Stats)) {
	if every <= 0 || fn == nil {
		s.progressEvery, s.progressFn = 0, nil
		return
	}
	s.progressEvery, s.progressFn = every, fn
}

// SetStop installs a cancellation hook polled every stopCheckInterval
// conflicts during search. When fn returns true the in-flight
// SolveWithBudget call returns (Unknown, ErrStopped) without finishing the
// query, so losing hedge slots abort mid-solve instead of waiting
// for the next budget-chunk boundary. A nil fn removes the hook. The hook
// must be cheap and race-free: it runs on the solving goroutine.
func (s *Solver) SetStop(fn func() bool) {
	s.stopFn = fn
}

// litValue returns the current value of a literal.
func (s *Solver) litValue(l Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	// a is lTrue(0) or lFalse(1); negation flips it.
	return a ^ lbool(l&1)
}

// Value returns the value of v in the most recent satisfying model. It is
// only meaningful after Solve returned Sat. Unassigned variables (possible
// when the formula does not constrain them) read as false.
func (s *Solver) Value(v Var) bool {
	if int(v) >= len(s.model) {
		return false
	}
	return s.model[v] == lTrue
}

// AddClause adds a clause to the solver. It returns false if the clause
// addition makes the formula trivially unsatisfiable at the top level.
// Literals are deduplicated; tautological clauses are silently accepted.
func (s *Solver) AddClause(lits ...Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause called below decision level 0")
	}
	// Normalize: sort-free dedup and tautology/falsified-literal removal.
	out := s.conflLit[:0]
	for _, l := range lits {
		if int(l.Var()) >= len(s.assign) {
			panic(fmt.Sprintf("sat: clause references unallocated variable %d", l.Var()))
		}
		switch s.litValue(l) {
		case lTrue:
			s.conflLit = out
			return true // clause already satisfied at level 0
		case lFalse:
			continue // drop falsified literal
		}
		dup := false
		for _, m := range out {
			if m == l {
				dup = true
				break
			}
			if m == l.Not() {
				s.conflLit = out
				return true // tautology
			}
		}
		if !dup {
			out = append(out, l)
		}
	}
	s.conflLit = out[:0]
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], refUndef)
		if s.propagate() != refUndef {
			s.ok = false
			return false
		}
		return true
	}
	ref := s.allocClause(out, false)
	s.attachClause(ref)
	s.stats.Clauses++
	return true
}

// allocClause copies lits into the arena behind a new header.
func (s *Solver) allocClause(lits []Lit, learnt bool) clauseRef {
	ref := clauseRef(len(s.clauses))
	s.clauses = append(grow(s.clauses, 1), clause{start: int32(len(s.arena)), size: int32(len(lits)), learnt: learnt})
	s.arena = append(grow(s.arena, len(lits)), lits...)
	return ref
}

// grow returns xs with room for n more elements, doubling the capacity
// when it runs out. The solver's arrays only grow while a formula loads,
// and append's growth factor for large slices (about 1.25x) would copy
// the arena and the per-variable arrays several times over.
func grow[T any](xs []T, n int) []T {
	if len(xs)+n <= cap(xs) {
		return xs
	}
	nx := make([]T, len(xs), max(2*cap(xs), len(xs)+n, 64))
	copy(nx, xs)
	return nx
}

// lits returns the clause's literals as a view into the arena; writes
// through it (watch swaps) update the clause in place. The view is
// invalidated by the next allocClause or compaction.
func (s *Solver) lits(ref clauseRef) []Lit {
	c := &s.clauses[ref]
	return s.arena[c.start : c.start+c.size]
}

func (s *Solver) attachClause(ref clauseRef) {
	lits := s.lits(ref)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{ref, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{ref, l0})
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l Lit, from clauseRef) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation over the two-watched-literal scheme.
// It returns the conflicting clause reference, or refUndef if no conflict.
func (s *Solver) propagate() clauseRef {
	var pops int
	for s.qhead < len(s.trail) {
		// Poll the stop hook here as well as on conflicts: if propagation
		// itself is the runaway loop (which a corrupted clause database or
		// a broken watcher scheme can produce without ever conflicting),
		// the conflict-path poll in search never runs and the solve would
		// be uncancellable. A healthy propagate call drains a bounded
		// queue, so counting pops within this call polls only when
		// something is wrong. Aborting between trail pops leaves the
		// assignment and queue consistent.
		pops++
		if s.stopFn != nil && pops&0x1fff == 0 && s.stopFn() {
			s.stopped = true
			return refUndef
		}
		p := s.trail[s.qhead]
		s.qhead++
		ws := s.watches[p]
		n := 0
	nextWatcher:
		for i := 0; i < len(ws); i++ {
			w := ws[i]
			if s.litValue(w.blocker) == lTrue {
				ws[n] = w
				n++
				continue
			}
			lits := s.lits(w.ref)
			// Ensure the false literal (p.Not()) is at position 1.
			if lits[0] == p.Not() {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.litValue(first) == lTrue {
				ws[n] = watcher{w.ref, first}
				n++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.litValue(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					nl := lits[1].Not()
					s.watches[nl] = append(s.watches[nl], watcher{w.ref, first})
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[n] = watcher{w.ref, first}
			n++
			if s.litValue(first) == lFalse {
				// Conflict: copy back remaining watchers and bail.
				for i++; i < len(ws); i++ {
					ws[n] = ws[i]
					n++
				}
				s.watches[p] = ws[:n]
				s.qhead = len(s.trail)
				return w.ref
			}
			s.stats.Propagations++
			s.uncheckedEnqueue(first, w.ref)
		}
		s.watches[p] = ws[:n]
	}
	return refUndef
}

// analyze performs first-UIP conflict analysis. It fills s.conflLit with the
// learnt clause (asserting literal first) and returns the backjump level.
func (s *Solver) analyze(confl clauseRef) int {
	learnt := s.conflLit[:0]
	learnt = append(learnt, 0) // placeholder for asserting literal
	pathC := 0
	var p Lit = -1
	idx := len(s.trail) - 1

	for {
		if s.clauses[confl].learnt {
			s.bumpClause(confl)
		}
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason
		}
		for _, q := range s.lits(confl)[start:] {
			v := q.Var()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal on the trail to resolve on.
		for !s.seen[s.trail[idx].Var()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = false
		pathC--
		if pathC == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Remember every marked literal so the seen flags can be fully cleared
	// even for literals the minimization below removes.
	s.analyzeT = append(s.analyzeT[:0], learnt...)

	// Clause minimization: drop literals implied by the rest of the clause
	// (local form — a literal whose reason's literals are all already seen).
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		r := s.reason[v]
		redundant := false
		if r != refUndef {
			redundant = true
			for _, q := range s.lits(r)[1:] {
				if !s.seen[q.Var()] && s.level[q.Var()] != 0 {
					redundant = false
					break
				}
			}
		}
		if !redundant {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]

	// Backjump level: second-highest decision level in the clause.
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].Var()])
	}
	for _, l := range s.analyzeT {
		s.seen[l.Var()] = false
	}
	s.conflLit = learnt
	return bt
}

// analyzeFinal expresses the final conflict in terms of assumption
// literals (the MiniSat procedure of the same name). It is called from
// search at the moment an assumption a is found falsified: it seeds the
// core with a, then walks the trail top-down resolving each marked
// variable through its reason clause. Marked variables with no reason are
// decisions, and every decision below the assumption prefix is an
// assumption literal verbatim, so they join the core; level-0 variables
// are facts and never marked. The result — stored in s.core and read via
// UnsatCore — is a subset of the caller's assumptions whose conjunction
// already makes the formula unsatisfiable.
func (s *Solver) analyzeFinal(a Lit) {
	s.core = append(s.core[:0], a)
	if s.decisionLevel() == 0 {
		return
	}
	s.seen[a.Var()] = true
	for i := len(s.trail) - 1; i >= int(s.trailLim[0]); i-- {
		v := s.trail[i].Var()
		if !s.seen[v] {
			continue
		}
		if r := s.reason[v]; r == refUndef {
			s.core = append(s.core, s.trail[i])
		} else {
			for _, q := range s.lits(r)[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = true
				}
			}
		}
		s.seen[v] = false
	}
	// a may have been falsified at level 0, in which case the walk above
	// never visits it; clear its mark explicitly.
	s.seen[a.Var()] = false
}

// UnsatCore returns the subset of the most recent Solve call's assumption
// literals that the solver used to derive unsatisfiability. It is
// meaningful only after a Solve/SolveWithBudget call returned Unsat; any
// other outcome (including formula-level UNSAT with no assumptions
// involved) yields an empty slice. The core is not guaranteed minimal —
// callers wanting a minimal core re-solve under subsets (see
// internal/cegis's explanation pass).
func (s *Solver) UnsatCore() []Lit {
	out := make([]Lit, len(s.core))
	copy(out, s.core)
	return out
}

// cancelUntil undoes assignments above the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := int(s.trailLim[lvl])
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.polarity[v] = s.trail[i].Neg()
		s.assign[v] = lUndef
		s.reason[v] = refUndef
		s.order.insert(v)
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.order.update(v)
}

func (s *Solver) decayVar() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(ref clauseRef) {
	c := &s.clauses[ref]
	c.activity += s.claInc
	if c.activity > 1e20 {
		for _, r := range s.learnts {
			s.clauses[r].activity *= 1e-20
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClause() { s.claInc /= 0.999 }

// pickBranchVar selects the unassigned variable with the highest activity.
func (s *Solver) pickBranchVar() Var {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assign[v] == lUndef {
			return v
		}
	}
	return -1
}

// reduceDB removes roughly half of the learnt clauses, keeping the most
// active ones and all binary clauses / current reasons, then compacts the
// literal arena once deleted clauses own more than half of it.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	// Partial selection: compute median activity by sampling is overkill at
	// our scale; select over a scratch copy of activities instead.
	s.acts = s.acts[:0]
	for _, r := range s.learnts {
		s.acts = append(s.acts, s.clauses[r].activity)
	}
	med := quickSelectMedian(s.acts)
	kept := s.learnts[:0]
	for _, r := range s.learnts {
		c := &s.clauses[r]
		l0 := s.arena[c.start]
		locked := s.litValue(l0) == lTrue && s.reason[l0.Var()] == r
		if locked || c.size <= 2 || c.activity >= med {
			kept = append(kept, r)
			continue
		}
		s.detachClause(r)
		c.deleted = true
		s.wasted += int(c.size)
		s.stats.DeletedLearnt++
	}
	s.learnts = kept
	if s.wasted > len(s.arena)/2 {
		s.compactArena()
	}
}

// compactArena slides every live clause's literals down over the deleted
// ones. Headers are laid out in arena order, so an in-place forward copy
// never overwrites literals it has yet to move; refs stay valid because
// only each header's start changes.
func (s *Solver) compactArena() {
	n := int32(0)
	for i := range s.clauses {
		c := &s.clauses[i]
		if c.deleted {
			c.start, c.size = 0, 0
			continue
		}
		copy(s.arena[n:], s.arena[c.start:c.start+c.size])
		c.start = n
		n += c.size
	}
	s.arena = s.arena[:n]
	s.wasted = 0
}

func (s *Solver) detachClause(ref clauseRef) {
	lits := s.lits(ref)
	s.unwatch(lits[0].Not(), ref)
	s.unwatch(lits[1].Not(), ref)
}

// unwatch removes ref's watcher from l's watch list.
func (s *Solver) unwatch(l Lit, ref clauseRef) {
	ws := s.watches[l]
	for i, w := range ws {
		if w.ref == ref {
			ws[i] = ws[len(ws)-1]
			s.watches[l] = ws[:len(ws)-1]
			return
		}
	}
}

// quickSelectMedian returns the median of xs, mutating xs.
func quickSelectMedian(xs []float64) float64 {
	k := len(xs) / 2
	lo, hi := 0, len(xs)-1
	for lo < hi {
		pivot := xs[(lo+hi)/2]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			break
		}
	}
	return xs[k]
}

// luby returns the i-th element (1-based) of the Luby restart sequence
// 1,1,2,1,1,2,4,...
func luby(i int64) int64 {
	for k := int64(1); ; k++ {
		if i == (int64(1)<<uint(k))-1 {
			return int64(1) << uint(k-1)
		}
		if i >= int64(1)<<uint(k-1) && i < (int64(1)<<uint(k))-1 {
			return luby(i - (int64(1) << uint(k-1)) + 1)
		}
	}
}

// Solve determines satisfiability under the given assumption literals. The
// clause database persists across calls, enabling incremental use.
func (s *Solver) Solve(assumptions ...Lit) Status {
	st, _ := s.SolveWithBudget(-1, assumptions...)
	return st
}

// SolveWithBudget is Solve with a conflict budget; budget < 0 means
// unlimited. If the budget is exhausted it returns (Unknown, ErrBudget).
func (s *Solver) SolveWithBudget(budget int64, assumptions ...Lit) (Status, error) {
	s.core = s.core[:0]
	if !s.ok {
		return Unsat, nil
	}
	if s.stopFn != nil && s.stopFn() {
		return Unknown, ErrStopped
	}
	start := time.Now()
	defer func() { s.stats.SolveNS += time.Since(start).Nanoseconds() }()
	s.assumptions = assumptions
	defer s.cancelUntil(0)

	restartN := int64(0)
	for {
		restartN++
		maxConfl := luby(restartN) * 100
		st := s.search(maxConfl, &budget)
		if st == Sat {
			s.model = append(s.model[:0], s.assign...)
		}
		if st != Unknown {
			return st, nil
		}
		if s.stopped {
			s.stopped = false
			return Unknown, ErrStopped
		}
		if budget == 0 {
			return Unknown, ErrBudget
		}
		s.stats.Restarts++
		s.cancelUntil(0)
	}
}

// search runs CDCL until a result, a restart (maxConfl conflicts), or budget
// exhaustion. Returns Unknown to signal restart/budget.
func (s *Solver) search(maxConfl int64, budget *int64) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if s.stopped {
			return Unknown
		}
		if confl != refUndef {
			conflicts++
			s.stats.Conflicts++
			if s.progressEvery > 0 && s.stats.Conflicts%s.progressEvery == 0 {
				s.progressFn(s.stats)
			}
			if *budget > 0 {
				*budget--
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			bt := s.analyze(confl)
			s.cancelUntil(bt)
			learnt := s.conflLit
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], refUndef)
			} else {
				ref := s.allocClause(learnt, true)
				s.learnts = append(s.learnts, ref)
				s.attachClause(ref)
				s.bumpClause(ref)
				s.stats.Learnt++
				s.uncheckedEnqueue(learnt[0], ref)
			}
			s.decayVar()
			s.decayClause()
			if int64(len(s.learnts)) > int64(s.stats.Clauses)*2+10000 {
				s.reduceDB()
			}
			// Poll the stop hook after the conflict is fully resolved
			// (clause learnt, backjump done) so an abort never leaves the
			// trail mid-analysis.
			if s.stopFn != nil && s.stats.Conflicts%stopCheckInterval == 0 && s.stopFn() {
				s.stopped = true
				return Unknown
			}
			continue
		}
		if conflicts >= maxConfl || (*budget == 0) {
			return Unknown
		}
		// All propagated; pick assumptions first, then decide.
		next := Lit(-1)
		for s.decisionLevel() < len(s.assumptions) {
			a := s.assumptions[s.decisionLevel()]
			switch s.litValue(a) {
			case lTrue:
				// Already satisfied: introduce an empty decision level so
				// the assumption indexing stays aligned.
				s.trailLim = append(s.trailLim, int32(len(s.trail)))
				continue
			case lFalse:
				// Assumptions conflict with the formula. Record which
				// assumptions participate before the deferred cancelUntil
				// tears down the trail.
				s.analyzeFinal(a)
				return Unsat
			}
			next = a
			break
		}
		if next == -1 {
			v := s.pickBranchVar()
			if v == -1 {
				return Sat // all variables assigned
			}
			s.stats.Decisions++
			next = MkLit(v, s.polarity[v])
		}
		s.trailLim = append(s.trailLim, int32(len(s.trail)))
		s.uncheckedEnqueue(next, refUndef)
	}
}
