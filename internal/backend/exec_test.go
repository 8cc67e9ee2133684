package backend_test

import (
	"testing"

	"repro/internal/alu"
	"repro/internal/backend"
	"repro/internal/pisa"
)

// TestExecPassesUnknownKeysThrough pins the map adapter's contract on a
// one-container grid that adds 3 to its only field: keys that are not
// the configuration's variables pass through untouched, missing
// variables read as zero, inputs truncate to the run width, and the input
// maps are not modified.
func TestExecPassesUnknownKeysThrough(t *testing.T) {
	g := pisa.GridSpec{Stages: 1, Width: 1, WordWidth: 5, StatefulALU: alu.Stateful{Kind: alu.Counter}}
	h := pisa.NewHoles[uint64](g, false, 1, func(string, int, bool) uint64 { return 0 })
	h.Stateless[0][0]["opcode"] = alu.SlOpAddImm
	h.Stateless[0][0]["imm"] = 3
	h.OMux[0][0] = 1 // the container's own stateless ALU
	cfg := &pisa.Config{Grid: g, Fields: []string{"x"}, Values: h}

	pkt := map[string]uint64{"x": 33, "other": 700}
	st := map[string]uint64{"unused": 9}
	outPkt, outSt := backend.Exec(cfg, pkt, st)
	if outPkt["x"] != 4 { // 33 truncates to 1 at width 5
		t.Errorf("x = %d, want 4", outPkt["x"])
	}
	if outPkt["other"] != 700 || outSt["unused"] != 9 {
		t.Errorf("unknown keys not passed through: %v %v", outPkt, outSt)
	}
	if pkt["x"] != 33 || len(pkt) != 2 || len(st) != 1 {
		t.Errorf("inputs modified: %v %v", pkt, st)
	}
	if outPkt, _ := backend.Exec(cfg, nil, nil); outPkt["x"] != 3 {
		t.Errorf("missing x should read as zero: got %v", outPkt)
	}
}
