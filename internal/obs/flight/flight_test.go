package flight

import (
	"bufio"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/obs"
)

// TestRingBounded: the recorder keeps exactly the last capacity entries
// and reports how many it shed.
func TestRingBounded(t *testing.T) {
	tr := obs.NewTracer()
	r := New(8)
	r.Attach(tr)
	ctx := obs.ContextWithTracer(context.Background(), tr)
	for i := 0; i < 20; i++ {
		obs.Note(ctx, "tick", obs.Int("i", i))
	}
	tail := r.Tail()
	if len(tail) != 8 {
		t.Fatalf("tail holds %d entries, want 8", len(tail))
	}
	if r.Dropped() != 12 {
		t.Errorf("Dropped = %d, want 12", r.Dropped())
	}
	for i, e := range tail {
		if want := uint64(12 + i); e.Seq != want {
			t.Errorf("tail[%d].Seq = %d, want %d (oldest-first order)", i, e.Seq, want)
		}
	}
	if tail[7].Kind != "note" || tail[7].Attrs["i"] != int64(19) {
		t.Errorf("newest entry = %+v, want note i=19", tail[7])
	}
}

// TestAttachReplayAndClose: attaching mid-compile replays the tracer's
// earlier records; Close stops the feed without losing the tail.
func TestAttachReplayAndClose(t *testing.T) {
	tr := obs.NewTracer()
	tr.StartRoot("compile").End()

	r := New(16)
	r.Attach(tr)
	if got := len(r.Tail()); got != 2 {
		t.Fatalf("replay recorded %d entries, want 2", got)
	}
	tr.StartRoot("attempt").End()
	if got := len(r.Tail()); got != 4 {
		t.Fatalf("live recording: %d entries, want 4", got)
	}

	r.Close()
	tr.StartRoot("late").End()
	if got := len(r.Tail()); got != 4 {
		t.Fatalf("closed recorder still recording: %d entries, want 4", got)
	}

	kinds := map[string]int{}
	for _, e := range r.Tail() {
		kinds[e.Kind]++
	}
	if kinds["start"] != 2 || kinds["end"] != 2 {
		t.Errorf("kinds = %v, want 2 start + 2 end", kinds)
	}
}

// TestWriteJSONL: the dump is one valid JSON object per line, bounded by
// the ring capacity.
func TestWriteJSONL(t *testing.T) {
	tr := obs.NewTracer()
	r := New(4)
	r.Attach(tr)
	for i := 0; i < 10; i++ {
		sp := tr.StartRoot("cegis.iter", obs.Int("iter", i))
		sp.End()
	}
	var sb strings.Builder
	if err := r.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	var last Entry
	for sc.Scan() {
		lines++
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("line %d is not JSON: %v", lines, err)
		}
	}
	if lines != 4 {
		t.Fatalf("dump holds %d lines, want 4 (ring capacity)", lines)
	}
	// The tail is the *end* of the run: the final iteration's records.
	if last.Kind != "end" {
		t.Errorf("last entry kind = %q, want end", last.Kind)
	}
}

// TestNilRecorder: a nil recorder is a valid no-op sink.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	r.Attach(obs.NewTracer())
	r.Close()
	if r.Tail() != nil || r.Dropped() != 0 {
		t.Error("nil recorder should report nothing")
	}
}
