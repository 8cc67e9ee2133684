// Package backendtest is the conformance suite for backend.Backend
// implementations: a shared battery of properties every compile target
// must satisfy for the CEGIS core to be sound on it. New backends get
// these checks for free by adding one test that calls Run — the same
// pattern the standard library uses for filesystem and hash conformance.
//
// The properties are exactly the seams cegis.SynthesizeOn trusts:
//
//   - the hole inventory is consistent (one width per name, names
//     unique, widths positive);
//   - a synthesized configuration decodes into something valid whose
//     variables echo the program's (decode(encode) identity at the
//     interface level);
//   - the decoded config's concrete interpreter agrees with its own
//     symbolic re-encoding on random inputs — the exact coherence the
//     verification phase relies on when it re-encodes an extracted
//     config instead of the sketch;
//   - the interpreter is deterministic and does not mutate its inputs,
//     which the difftest oracles and the solution cache assume;
//   - the slice executor agrees with the map adapter (Exec) and runs a
//     transaction without allocating, the contract the equivalence
//     oracle's probe loop relies on;
//   - the backend's domain constraints carry named constraint groups from
//     the shared vocabulary when groups are enabled, and are emitted
//     bit-identically when they are not (the feasible path must not see
//     the forensics machinery);
//   - on a known-infeasible fixture (RunInfeasible), the UNSAT-core
//     forensics pass produces a minimal blame set whose every group maps
//     back to a real program entity or a documented domain family.
package backendtest

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/backend"
	"repro/internal/cegis"
	"repro/internal/circuit"
	"repro/internal/sat"
)

// Run executes the full conformance battery: be must synthesize prog at
// the given program size (known-feasible by construction of the caller's
// fixture) and the resulting configuration must satisfy every interface
// contract. seed feeds both CEGIS and the random probing.
func Run(t *testing.T, be backend.Backend, prog *ast.Program, size int, seed int64) {
	t.Helper()
	vars := prog.Variables()
	nf, ns := len(vars.Fields), len(vars.States)

	checkInventory(t, be, size, nf, ns)
	checkNamedGroups(t, be, size, nf, ns)
	checkSymmetrySeam(t, be, size, nf, ns)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := cegis.SynthesizeOn(ctx, prog, be, size, cegis.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: synthesize: %v", be.Target(), err)
	}
	if !res.Feasible {
		t.Fatalf("%s: conformance fixture must be feasible at size %d (timedout=%v)", be.Target(), size, res.TimedOut)
	}
	cfg := res.TargetConfig
	if cfg == nil {
		t.Fatalf("%s: feasible result carries no TargetConfig", be.Target())
	}
	if cfg.Target() != be.Target() {
		t.Errorf("config target = %q, backend = %q", cfg.Target(), be.Target())
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("%s: synthesized config invalid: %v", be.Target(), err)
	}
	gotF, gotS := cfg.Vars()
	if !sameStrings(gotF, vars.Fields) || !sameStrings(gotS, vars.States) {
		t.Errorf("%s: Vars() = (%v, %v), want (%v, %v)", be.Target(), gotF, gotS, vars.Fields, vars.States)
	}
	if err := cfg.RunWidth().Validate(); err != nil {
		t.Errorf("%s: RunWidth invalid: %v", be.Target(), err)
	}

	checkDeterminism(t, cfg, seed)
	checkSymbolicAgreement(t, cfg, seed)
}

// RunInfeasible executes the forensics half of the conformance battery:
// prog must be infeasible on be at the given size, and the explanation
// pass must produce a nonempty blame set, proven minimal by re-solve,
// whose every group is either a documented domain family or maps back to
// one of the program's packet fields or state variables.
func RunInfeasible(t *testing.T, be backend.Backend, prog *ast.Program, size int, seed int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	res, err := cegis.Explain(ctx, prog, be, size, cegis.Options{Seed: seed})
	if err != nil {
		t.Fatalf("%s: explain: %v", be.Target(), err)
	}
	if res.Feasible || res.TimedOut || res.CapacityExceeded {
		t.Fatalf("%s: infeasible fixture expected at size %d, got %+v", be.Target(), size, res)
	}
	if len(res.Core) == 0 {
		t.Fatalf("%s: infeasible fixture produced an empty blame set", be.Target())
	}
	if !res.Minimal {
		t.Fatalf("%s: minimization did not complete", be.Target())
	}
	vars := prog.Variables()
	for _, g := range res.Core {
		if isDomainGroup(g) {
			continue
		}
		kind, output, ok := circuit.ParseOutputGroup(g)
		if !ok {
			t.Errorf("%s: blamed group %q is neither a domain family nor an output group", be.Target(), g)
			continue
		}
		pool := vars.Fields
		if kind == "state" {
			pool = vars.States
		}
		found := false
		for _, v := range pool {
			if v == output {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: blamed group %q names no %s variable of the program (%v/%v)",
				be.Target(), g, kind, vars.Fields, vars.States)
		}
	}
}

func isDomainGroup(g string) bool {
	switch g {
	case circuit.GroupOpcodeMask, circuit.GroupMuxRange,
		circuit.GroupStateAlloc, circuit.GroupFieldAlloc,
		circuit.GroupSymmetry:
		return true
	}
	return false
}

// checkSymmetrySeam pins the opt-in contract for symmetry breaking:
// AssertDomains may emit circuit.GroupSymmetry constraints exactly when
// the backend advertises them via backend.SymmetryBreaker. A backend
// that does not implement the interface (or reports false) must never
// emit the group — symmetry clauses are target-specific pruning, and a
// backend that has not vouched for their soundness on its datapath must
// not inherit them through the shared seam.
func checkSymmetrySeam(t *testing.T, be backend.Backend, size, nf, ns int) {
	t.Helper()
	wantSym := false
	if sb, ok := be.(backend.SymmetryBreaker); ok {
		wantSym = sb.SymmetryBreaking()
	}
	gotSym := false
	for _, g := range domainCNF(t, be, size, nf, ns, true).Groups() {
		if g == circuit.GroupSymmetry {
			gotSym = true
		}
	}
	if gotSym != wantSym {
		t.Errorf("%s: symmetry group emitted=%v, SymmetryBreaker opt-in=%v", be.Target(), gotSym, wantSym)
	}
}

// checkNamedGroups asserts the forensics contract on AssertDomains: with
// groups enabled every emitted domain constraint carries a name from the
// shared vocabulary, and with groups disabled (the default) the clause
// stream is bit-identical to a build that never mentions groups — the
// feasible path must not pay for, or be perturbed by, the machinery.
func checkNamedGroups(t *testing.T, be backend.Backend, size, nf, ns int) {
	t.Helper()
	gated := domainCNF(t, be, size, nf, ns, true)
	groups := gated.Groups()
	if len(groups) == 0 {
		t.Fatalf("%s: AssertDomains emitted no named constraint groups", be.Target())
	}
	for _, g := range groups {
		if !isDomainGroup(g) {
			t.Errorf("%s: AssertDomains produced group %q outside the domain vocabulary", be.Target(), g)
		}
	}
	if got := len(gated.GroupAssumptions(groups)); got != len(groups) {
		t.Errorf("%s: %d groups but %d assumption selectors", be.Target(), len(groups), got)
	}
	plain := domainCNF(t, be, size, nf, ns, false)
	// The gated build adds exactly one selector variable per group and one
	// extra literal per gated clause; the ungated build must match a
	// groups-free build exactly, which it does trivially since SetGroup is
	// a no-op without EnableGroups — so just pin the invariant the perf
	// baselines rely on: ungated NumVars/NumClauses are strictly smaller
	// than the gated build's (the selectors exist only when enabled).
	if plain.NumVars() >= gated.NumVars() {
		t.Errorf("%s: ungated build has %d vars, gated %d — selectors missing?",
			be.Target(), plain.NumVars(), gated.NumVars())
	}
}

// domainCNF builds a fresh sketch of be and asserts its domain
// constraints, with named constraint groups enabled when gated.
func domainCNF(t *testing.T, be backend.Backend, size, nf, ns int, gated bool) *circuit.CNF {
	t.Helper()
	b := circuit.New()
	sk, err := be.NewSketch(b, size, nf, ns)
	if err != nil {
		t.Fatalf("%s: NewSketch: %v", be.Target(), err)
	}
	cnf := circuit.NewCNF(b, sat.New())
	if gated {
		cnf.EnableGroups()
	}
	sk.AssertDomains(cnf)
	return cnf
}

// checkInventory verifies the basic sanity of HoleInventory's names and
// widths.
func checkInventory(t *testing.T, be backend.Backend, size, nf, ns int) {
	t.Helper()
	b := circuit.New()
	sk, err := be.NewSketch(b, size, nf, ns)
	if err != nil {
		t.Fatalf("%s: NewSketch: %v", be.Target(), err)
	}
	names, widths := sk.HoleInventory()
	if len(names) != len(widths) {
		t.Fatalf("%s: inventory lengths differ: %d names, %d widths", be.Target(), len(names), len(widths))
	}
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" {
			t.Errorf("%s: hole %d has empty name", be.Target(), i)
		}
		if seen[n] {
			t.Errorf("%s: duplicate hole name %q", be.Target(), n)
		}
		seen[n] = true
		if widths[i] < 1 {
			t.Errorf("%s: hole %q has width %d", be.Target(), n, widths[i])
		}
	}
	if err := sk.MinWidth().Validate(); err != nil {
		t.Errorf("%s: MinWidth invalid: %v", be.Target(), err)
	}
}

// checkDeterminism runs the map adapter twice and the slice executor
// once on the same input and verifies identical outputs and untouched
// input maps, then holds the executor to zero allocations.
func checkDeterminism(t *testing.T, cfg backend.Config, seed int64) {
	t.Helper()
	fields, states := cfg.Vars()
	w := cfg.RunWidth()
	exec := cfg.NewExecutor()
	fv := make([]uint64, len(fields))
	sv := make([]uint64, len(states))
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 64; trial++ {
		pkt := map[string]uint64{}
		st := map[string]uint64{}
		for i, f := range fields {
			fv[i] = w.Trunc(rng.Uint64())
			pkt[f] = fv[i]
		}
		for i, s := range states {
			sv[i] = w.Trunc(rng.Uint64())
			st[s] = sv[i]
		}
		inPkt, inSt := cloneMap(pkt), cloneMap(st)
		p1, s1 := cfg.Exec(pkt, st)
		p2, s2 := cfg.Exec(pkt, st)
		if !sameMap(p1, p2) || !sameMap(s1, s2) {
			t.Fatalf("%s: Exec nondeterministic on pkt=%v state=%v", cfg.Target(), inPkt, inSt)
		}
		if !sameMap(pkt, inPkt) || !sameMap(st, inSt) {
			t.Fatalf("%s: Exec mutated its inputs: %v/%v -> %v/%v", cfg.Target(), inPkt, inSt, pkt, st)
		}
		exec(fv, sv)
		for i, f := range fields {
			if fv[i] != p1[f] {
				t.Fatalf("%s: pkt.%s: executor=%d Exec=%d (input %v/%v)", cfg.Target(), f, fv[i], p1[f], pkt, st)
			}
		}
		for i, s := range states {
			if sv[i] != s1[s] {
				t.Fatalf("%s: state %s: executor=%d Exec=%d (input %v/%v)", cfg.Target(), s, sv[i], s1[s], pkt, st)
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { exec(fv, sv) }); allocs != 0 {
		t.Errorf("%s: executor allocates %.1f objects per transaction, want 0", cfg.Target(), allocs)
	}
}

// checkSymbolicAgreement evaluates the config's symbolic re-encoding as a
// concrete circuit and compares it with Exec on random inputs at the run
// width — the width verification re-encoded the extracted config at, so
// this is exactly the coherence CEGIS trusted.
func checkSymbolicAgreement(t *testing.T, cfg backend.Config, seed int64) {
	t.Helper()
	fields, states := cfg.Vars()
	ww := cfg.RunWidth()
	b := circuit.New()
	fw := make([]circuit.Word, len(fields))
	for i, f := range fields {
		fw[i] = b.InputWord("pkt_"+f, ww)
	}
	sw := make([]circuit.Word, len(states))
	for i, s := range states {
		sw[i] = b.InputWord("state_"+s, ww)
	}
	outF, outS := cfg.Symbolic(b, ww, fw, sw)
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 64; trial++ {
		pkt := map[string]uint64{}
		st := map[string]uint64{}
		inputs := map[circuit.Bit]bool{}
		for i, f := range fields {
			v := ww.Trunc(rng.Uint64())
			pkt[f] = v
			circuit.SetWordInputs(inputs, fw[i], v)
		}
		for i, s := range states {
			v := ww.Trunc(rng.Uint64())
			st[s] = v
			circuit.SetWordInputs(inputs, sw[i], v)
		}
		wantP, wantS := cfg.Exec(pkt, st)
		for i, f := range fields {
			if got := b.EvalWord(inputs, outF[i]); got != wantP[f] {
				t.Fatalf("%s: width %d pkt.%s: symbolic=%d concrete=%d (input %v/%v)",
					cfg.Target(), ww, f, got, wantP[f], pkt, st)
			}
		}
		for i, s := range states {
			if got := b.EvalWord(inputs, outS[i]); got != wantS[s] {
				t.Fatalf("%s: width %d state %s: symbolic=%d concrete=%d (input %v/%v)",
					cfg.Target(), ww, s, got, wantS[s], pkt, st)
			}
		}
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameMap(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func cloneMap(m map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
