package obs

import "testing"

// TestSubscribeReplayAndClose: a mid-compile subscriber sees earlier
// records via replay, live records while open, and nothing after Close.
func TestSubscribeReplayAndClose(t *testing.T) {
	tr := NewTracer()
	s1 := tr.StartRoot("before")
	s1.End()

	var got []Record
	sub := tr.Subscribe(func(r Record) { got = append(got, r) }, true)
	if len(got) != 2 {
		t.Fatalf("replay delivered %d records, want 2", len(got))
	}

	s2 := tr.StartRoot("during")
	if len(got) != 3 {
		t.Fatalf("live delivery: %d records, want 3", len(got))
	}

	sub.Close()
	s2.End()
	tr.StartRoot("after").End()
	if len(got) != 3 {
		t.Fatalf("closed subscriber still received records: %d, want 3", len(got))
	}
	// The tracer itself keeps recording past the unsubscribe.
	if n := len(tr.Records()); n != 6 {
		t.Fatalf("tracer retained %d records, want 6", n)
	}

	// Closing twice and nil handles are no-ops.
	sub.Close()
	var nilSub *Subscription
	nilSub.Close()
	var nilTr *Tracer
	if nilTr.Subscribe(func(Record) {}, true) != nil {
		t.Error("nil tracer Subscribe should return nil")
	}
}

// TestSubscribeWithoutReplay: replay=false delivers only records emitted
// after the subscription.
func TestSubscribeWithoutReplay(t *testing.T) {
	tr := NewTracer()
	tr.StartRoot("old").End()
	var got []Record
	defer tr.Subscribe(func(r Record) { got = append(got, r) }, false).Close()
	tr.StartRoot("new").End()
	if len(got) != 2 {
		t.Fatalf("got %d records, want 2 (no replay)", len(got))
	}
	if got[0].Name != "new" {
		t.Errorf("first live record is %q, want \"new\"", got[0].Name)
	}
}
