package word

import (
	"testing"
	"testing/quick"
)

func TestValidate(t *testing.T) {
	for _, w := range []Width{1, 4, 10, 32} {
		if err := w.Validate(); err != nil {
			t.Errorf("width %d should validate: %v", w, err)
		}
	}
	for _, w := range []Width{0, -1, 33, 64} {
		if err := w.Validate(); err == nil {
			t.Errorf("width %d should be rejected", w)
		}
	}
}

func TestMaskSizeTrunc(t *testing.T) {
	w := Width(4)
	if w.Mask() != 0xF || w.Size() != 16 {
		t.Fatalf("mask=%x size=%d", w.Mask(), w.Size())
	}
	if w.Trunc(0x1F) != 0xF {
		t.Fatal("trunc")
	}
	if Width(32).Mask() != 0xFFFFFFFF {
		t.Fatal("32-bit mask")
	}
}

func TestSignConversion(t *testing.T) {
	w := Width(8)
	cases := []struct {
		in   int64
		word uint64
		back int64
	}{
		{0, 0, 0}, {1, 1, 1}, {-1, 255, -1}, {127, 127, 127},
		{-128, 128, -128}, {128, 128, -128}, {256, 0, 0}, {-257, 255, -1},
	}
	for _, c := range cases {
		if got := w.FromInt(c.in); got != c.word {
			t.Errorf("FromInt(%d) = %d, want %d", c.in, got, c.word)
		}
		if got := w.ToInt(c.word); got != c.back {
			t.Errorf("ToInt(%d) = %d, want %d", c.word, got, c.back)
		}
	}
}

func TestSignBit(t *testing.T) {
	w := Width(4)
	if w.SignBit(7) || !w.SignBit(8) {
		t.Fatal("sign bit at width 4")
	}
}

func TestArithmeticWrapping(t *testing.T) {
	w := Width(8)
	if w.Add(250, 10) != 4 {
		t.Fatal("add wrap")
	}
	if w.Sub(3, 5) != 254 {
		t.Fatal("sub wrap")
	}
	if w.Mul(16, 16) != 0 {
		t.Fatal("mul wrap")
	}
	if w.Neg(1) != 255 || w.Neg(0) != 0 {
		t.Fatal("neg")
	}
}

func TestShifts(t *testing.T) {
	w := Width(8)
	if w.Shl(1, 3) != 8 || w.Shl(1, 8) != 0 || w.Shl(1, 200) != 0 {
		t.Fatal("shl")
	}
	if w.Shr(0x80, 4) != 8 || w.Shr(0x80, 8) != 0 {
		t.Fatal("shr")
	}
}

func TestComparisonsAreSigned(t *testing.T) {
	w := Width(8)
	if w.Lt(255, 1) != 1 { // -1 < 1
		t.Fatal("lt signed")
	}
	if w.Gt(255, 1) != 0 || w.Ge(128, 127) != 0 || w.Le(128, 127) != 1 {
		t.Fatal("signed comparisons")
	}
	if w.Eq(256, 0) != 1 || w.Ne(256, 0) != 0 {
		t.Fatal("eq should truncate operands")
	}
}

func TestLogical(t *testing.T) {
	if LAnd(2, 3) != 1 || LAnd(2, 0) != 0 || LOr(0, 0) != 0 || LOr(0, 9) != 1 {
		t.Fatal("logical ops")
	}
	if LNot(0) != 1 || LNot(42) != 0 {
		t.Fatal("lnot")
	}
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Fatal("bool")
	}
	if !Truthy(5) || Truthy(0) {
		t.Fatal("truthy")
	}
	if Mux(1, 10, 20) != 10 || Mux(0, 10, 20) != 20 || Mux(7, 10, 20) != 10 {
		t.Fatal("mux")
	}
}

// TestRingHomomorphism is the property the whole two-tier CEGIS design
// rests on: truncation commutes with +, -, *.
func TestRingHomomorphism(t *testing.T) {
	narrow, wide := Width(4), Width(10)
	f := func(a, b uint16) bool {
		av, bv := uint64(a), uint64(b)
		return narrow.Add(wide.Add(av, bv), 0) == narrow.Add(narrow.Trunc(av), narrow.Trunc(bv)) &&
			narrow.Trunc(wide.Sub(av, bv)) == narrow.Sub(narrow.Trunc(av), narrow.Trunc(bv)) &&
			narrow.Trunc(wide.Mul(av, bv)) == narrow.Mul(narrow.Trunc(av), narrow.Trunc(bv))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestToIntFromIntRoundtrip: FromInt(ToInt(x)) == x for all w-bit words.
func TestToIntFromIntRoundtrip(t *testing.T) {
	for _, w := range []Width{1, 3, 8, 10} {
		for v := uint64(0); v < w.Size(); v++ {
			if got := w.FromInt(w.ToInt(v)); got != v {
				t.Fatalf("width %d: roundtrip of %d gave %d", w, v, got)
			}
		}
	}
}

func TestSelIdx(t *testing.T) {
	cases := []struct {
		w      Width
		sel    uint64
		n, idx int
	}{
		{4, 2, 5, 2},    // in range
		{4, 9, 5, 4},    // out of range clamps to the last option
		{2, 5, 5, 1},    // 5 truncates to 1 at width 2
		{2, 4, 5, 0},    // 4 aliases option 0, not the fallback
		{1, 1, 3, 1},    // width 1: option 2 is reachable only as a fallback
		{3, 0, 1, 0},    // a single option always wins
		{5, 23, 24, 23}, // the last option by its own encoding
	}
	for _, c := range cases {
		if got := c.w.SelIdx(c.sel, c.n); got != c.idx {
			t.Errorf("Width(%d).SelIdx(%d, %d) = %d, want %d", c.w, c.sel, c.n, got, c.idx)
		}
	}
}

func TestNextVisitsEveryVectorOnce(t *testing.T) {
	w := Width(2)
	v := make([]uint64, 3)
	seen := map[[3]uint64]bool{}
	for {
		k := [3]uint64{v[0], v[1], v[2]}
		if seen[k] {
			t.Fatalf("vector %v visited twice", k)
		}
		seen[k] = true
		if !w.Next(v) {
			break
		}
	}
	if len(seen) != 64 {
		t.Fatalf("visited %d vectors, want 64", len(seen))
	}
	if w.Next(nil) {
		t.Fatal("the empty vector has no successor")
	}
}
