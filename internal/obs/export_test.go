package obs

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// TestJSONLRoundTrip writes a nested trace with a note to a buffer,
// decodes it, and checks the decoded records are structurally identical
// and well-formed.
func TestJSONLRoundTrip(t *testing.T) {
	tr := NewTracer()
	ctx := ContextWithTracer(context.Background(), tr)

	ctx1, root := StartSpan(ctx, "compile", String("program", "sampling"), Int("width", 2))
	for iter := 1; iter <= 3; iter++ {
		c2, it := StartSpan(ctx1, "cegis.iter", Int("iter", iter))
		c3, synth := StartSpan(c2, "synth")
		Note(c3, "sat.progress", String("phase", "synth"))
		synth.End(String("outcome", "sat"), Int64("conflicts", int64(10*iter)))
		_, verify := StartSpan(c2, "verify")
		verify.End(String("outcome", "unsat"))
		it.End()
	}
	root.End(Bool("feasible", true))
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}

	decoded, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := tr.Records()
	if len(decoded) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(decoded), len(want))
	}
	if err := CheckWellFormed(decoded); err != nil {
		t.Fatal(err)
	}
	for i := range decoded {
		d, w := decoded[i], want[i]
		if d.Type != w.Type || d.ID != w.ID || d.Parent != w.Parent || d.Name != w.Name || d.TimeNS != w.TimeNS {
			t.Fatalf("record %d mismatch:\n got %+v\nwant %+v", i, d, w)
		}
	}
	// Integer attrs decode as float64; values must survive.
	if decoded[3].Type != RecordNote || decoded[3].Parent != decoded[2].ID {
		t.Fatalf("record 3 = %+v, want a note under synth span %d", decoded[3], decoded[2].ID)
	}
	if got := decoded[4].Attrs["conflicts"]; got != float64(10) {
		t.Fatalf("conflicts attr = %v (%T)", got, got)
	}
	// A decoded trace still renders as a tree.
	sum := SummarizeRecords(decoded)
	if !strings.Contains(sum, "compile") || strings.Count(sum, "cegis.iter") != 3 {
		t.Fatalf("summary of decoded trace:\n%s", sum)
	}
	if strings.Contains(sum, "sat.progress") {
		t.Fatalf("summary renders notes:\n%s", sum)
	}
}

func TestCheckWellFormedRejections(t *testing.T) {
	cases := []struct {
		name string
		recs []Record
		want string
	}{
		{"end without start",
			[]Record{{Type: RecordEnd, ID: 1, TimeNS: 5}},
			"without a start"},
		{"double start",
			[]Record{{Type: RecordStart, ID: 1}, {Type: RecordStart, ID: 1}},
			"started twice"},
		{"double end",
			[]Record{{Type: RecordStart, ID: 1}, {Type: RecordEnd, ID: 1}, {Type: RecordEnd, ID: 1}},
			"ended twice"},
		{"unknown parent",
			[]Record{{Type: RecordStart, ID: 2, Parent: 9}},
			"unknown parent"},
		{"child outlives parent",
			[]Record{
				{Type: RecordStart, ID: 1},
				{Type: RecordStart, ID: 2, Parent: 1},
				{Type: RecordEnd, ID: 1},
			},
			"still open"},
		{"start under ended parent",
			[]Record{
				{Type: RecordStart, ID: 1},
				{Type: RecordEnd, ID: 1},
				{Type: RecordStart, ID: 2, Parent: 1},
			},
			"already-ended parent"},
		{"time reversal",
			[]Record{{Type: RecordStart, ID: 1, TimeNS: 10}, {Type: RecordEnd, ID: 1, TimeNS: 3}},
			"before it starts"},
		{"never ended",
			[]Record{{Type: RecordStart, ID: 1}},
			"never ended"},
		{"note under unknown parent",
			[]Record{{Type: RecordNote, ID: 2, Parent: 9}},
			"unknown parent"},
		{"note under ended parent",
			[]Record{
				{Type: RecordStart, ID: 1},
				{Type: RecordEnd, ID: 1},
				{Type: RecordNote, ID: 2, Parent: 1},
			},
			"already-ended parent"},
		{"note reuses a span id",
			[]Record{{Type: RecordStart, ID: 1}, {Type: RecordNote, ID: 1, Parent: 1}},
			"started twice"},
		{"unknown type",
			[]Record{{Type: "bogus", ID: 1}},
			"unknown type"},
	}
	for _, tc := range cases {
		err := CheckWellFormed(tc.recs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestReadRecordsSkipsBlanksRejectsGarbage(t *testing.T) {
	recs, err := ReadRecords(strings.NewReader("\n{\"type\":\"start\",\"id\":1,\"t\":0}\n\n{\"type\":\"end\",\"id\":1,\"t\":1}\n"))
	if err != nil || len(recs) != 2 {
		t.Fatalf("recs=%v err=%v", recs, err)
	}
	if _, err := ReadRecords(strings.NewReader("not json\n")); err == nil {
		t.Fatal("garbage line should error")
	}
}

func TestSummaryMarksUnendedSpans(t *testing.T) {
	sum := SummarizeRecords([]Record{{Type: RecordStart, ID: 1, Name: "hung"}})
	if !strings.Contains(sum, "hung") || !strings.Contains(sum, "[unended]") {
		t.Fatalf("summary = %q", sum)
	}
}
