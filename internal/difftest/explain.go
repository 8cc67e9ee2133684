package difftest

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/cegis"
	"repro/internal/pisa"
)

// CheckExplainMinimal audits infeasibility forensics on a scenario the
// compiler judged unsatisfiable at its stage budget. It re-runs the gated
// explain pass (cegis.AuditCore) and verifies the advertised blame-set
// contract by direct re-solves against the same encoding: the blamed core
// alone must still be UNSAT under its group assumptions, and dropping any
// single member must flip the verdict to SAT. It also catches the gated
// rerun disagreeing with the ungated verdict — synthesizing a verified
// configuration at a size the plain encoding proved impossible — which
// would mean group gating changed the encoding's semantics.
//
// Unlike SpotCheckInfeasible this oracle is deterministic and complete
// for what it claims: a reported discrepancy always indicates a bug in
// the forensics machinery (selector allocation, final-conflict analysis,
// or deletion minimization), never bad luck. Timeouts and capacity
// rejections return nil: there is no completed claim to audit.
func CheckExplainMinimal(ctx context.Context, sc Scenario, stages int, seed int64) *Discrepancy {
	be := pisa.Backend{Grid: pisa.GridSpec{
		Width:        sc.Width,
		WordWidth:    cegis.DefaultVerifyWidth,
		StatelessALU: sc.Stateless,
		StatefulALU:  sc.Stateful,
	}}
	res, defects, err := cegis.AuditCore(ctx, sc.Prog, be, stages, cegis.Options{Seed: seed})
	if err != nil {
		return &Discrepancy{Kind: KindCompileError, Detail: "explain: " + err.Error()}
	}
	switch {
	case res.CapacityExceeded || res.TimedOut:
		return nil
	case res.Feasible:
		return &Discrepancy{Kind: KindExplainDiverged, Detail: fmt.Sprintf(
			"gated forensics rerun synthesized a verified config at %d stages (width %d, %s ALU) where the ungated compile proved infeasibility",
			stages, sc.Width, sc.Stateful.Kind)}
	case len(defects) > 0:
		return &Discrepancy{Kind: KindCoreNotMinimal, Detail: strings.Join(defects, "\n")}
	}
	return nil
}
