package difftest

import (
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/backend"
	"repro/internal/cegis"
	"repro/internal/pisa"
)

// SpotCheckInfeasible probes an UNSAT-at-depth claim: when core.Compile
// reports a program infeasible on a grid, this samples random hole
// assignments at that depth and checks whether any of them implements the
// program — a configuration CEGIS should have found. A surviving sample
// must match the specification exhaustively at the small check width, at
// the effective synthesis width, and on a large random sample at the
// verification width before it is reported, so a report means the solver
// stack genuinely missed a solution (or mis-encoded the sketch).
//
// The check is probabilistic: it can only ever find false UNSATs, never
// certify them, and its hit rate depends on how dense solutions are in the
// hole space. For the tiny grids the fuzzing campaign uses, gross
// unsoundness (e.g. broken unit propagation wrongly pruning the search)
// makes almost every feasible program report infeasible, and those dense
// solution spaces are exactly the ones random sampling hits.
func SpotCheckInfeasible(sc Scenario, stages, samples int, seed int64) *Discrepancy {
	vars := sc.Prog.Variables()
	fields, states := vars.Fields, vars.States

	grid := pisa.GridSpec{
		Stages:       stages,
		Width:        sc.Width,
		WordWidth:    cegis.DefaultVerifyWidth,
		StatelessALU: sc.Stateless,
		StatefulALU:  sc.Stateful,
	}
	// Capacity rejections are legitimately infeasible with no config to
	// find; nothing to probe.
	if len(fields) > grid.Width || len(states) > grid.StateSlots() {
		return nil
	}

	rng := rand.New(rand.NewSource(seed))
	nVars := len(fields) + len(states)
	// A handful of random inputs for fast candidate rejection.
	var quick [][]uint64
	backend.Probe(grid.WordWidth, nVars, rng, 8, func(in []uint64) *backend.Mismatch {
		quick = append(quick, slices.Clone(in))
		return nil
	})
	for i := 0; i < samples; i++ {
		cfg := randomConfig(rng, grid, fields, states)
		if cfg.Validate() != nil {
			continue
		}
		// Cheap rejection first: almost every random config dies on the
		// first probe, keeping the per-sample cost near one transaction.
		if !agreesOn(backend.NewChecker(sc.Prog, cfg), quick) {
			continue
		}
		// Survivor: apply the full oracle battery before alleging a bug.
		if d := CheckConfigEquivalence(sc.Prog, cfg, seed+int64(i)); d != nil {
			continue
		}
		// The synthesis width, clamped as cegis clamps it.
		synthW := max(cegis.DefaultSynthWidth, grid.MinWidth())
		if nVars > 0 && int(synthW)*nVars <= backend.ExhaustiveBits {
			if backend.Sweep(synthW, nVars, backend.NewChecker(sc.Prog, cfg.WithRunWidth(synthW)).Compare) != nil {
				continue
			}
		}
		return &Discrepancy{
			Kind: KindMissedSolution,
			Detail: fmt.Sprintf("claimed infeasible at %d stages (width %d, %s ALU), but random sample %d/%d implements the program; config:\n%s",
				stages, grid.Width, sc.Stateful.Kind, i, samples, cfg),
		}
	}
	return nil
}

// agreesOn reports whether the checker's configuration matches the
// interpreter on every input.
func agreesOn(ck *backend.Checker, inputs [][]uint64) bool {
	for _, in := range inputs {
		if ck.Compare(in) != nil {
			return false
		}
	}
	return true
}

// randomConfig samples a uniformly random hole assignment for the grid and
// fixes it up to satisfy the structural allocation constraints
// (pisa.Config.Validate): used state slots active in exactly one stage,
// unused slots inactive. Mux holes may draw out-of-range values; the
// datapath clamps those to the last option, so each sample is still
// equivalent to some in-domain configuration.
func randomConfig(rng *rand.Rand, grid pisa.GridSpec, fields, states []string) *pisa.Config {
	vals := pisa.NewHoles[uint64](grid, false, len(fields), func(name string, bits int, data bool) uint64 {
		return rng.Uint64() & ((1 << uint(bits)) - 1)
	})
	ns := grid.StatefulALU.NumStates()
	usedSlots := 0
	if ns > 0 {
		usedSlots = (len(states) + ns - 1) / ns
	}
	for j := 0; j < grid.Width; j++ {
		active := -1
		if j < usedSlots {
			active = rng.Intn(grid.Stages)
		}
		for i := 0; i < grid.Stages; i++ {
			if i == active {
				vals.SaluActive[i][j] = 1
			} else {
				vals.SaluActive[i][j] = 0
			}
		}
	}
	return &pisa.Config{Grid: grid, Fields: fields, States: states, Values: vals}
}
