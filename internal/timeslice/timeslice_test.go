package timeslice

import (
	"math"
	"testing"
	"testing/quick"
)

func TestUniform(t *testing.T) {
	g, err := Uniform(10, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Num() != 5 {
		t.Errorf("Num = %d", g.Num())
	}
	if g.Origin() != 10 || g.End() != 20 {
		t.Errorf("span [%g, %g]", g.Origin(), g.End())
	}
	for j := 0; j < 5; j++ {
		if g.Len(j) != 2 {
			t.Errorf("Len(%d) = %g", j, g.Len(j))
		}
		if g.Start(j) != 10+float64(j)*2 {
			t.Errorf("Start(%d) = %g", j, g.Start(j))
		}
	}
}

func TestUniformErrors(t *testing.T) {
	if _, err := Uniform(0, 0, 3); err == nil {
		t.Error("zero slice length accepted")
	}
	if _, err := Uniform(0, -1, 3); err == nil {
		t.Error("negative slice length accepted")
	}
	if _, err := Uniform(0, 1, -1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Uniform(0, math.NaN(), 3); err == nil {
		t.Error("NaN slice length accepted")
	}
	if _, err := Uniform(0, math.Inf(1), 3); err == nil {
		t.Error("infinite slice length accepted")
	}
}

func TestFromBoundaries(t *testing.T) {
	g, err := FromBoundaries([]float64{0, 1, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if g.Num() != 3 {
		t.Errorf("Num = %d", g.Num())
	}
	if g.Len(0) != 1 || g.Len(1) != 2 || g.Len(2) != 4 {
		t.Errorf("lengths %g %g %g", g.Len(0), g.Len(1), g.Len(2))
	}
	if _, err := FromBoundaries(nil); err == nil {
		t.Error("empty boundaries accepted")
	}
	if _, err := FromBoundaries([]float64{0, 0}); err == nil {
		t.Error("non-increasing boundaries accepted")
	}
}

func TestIndex(t *testing.T) {
	g, _ := Uniform(0, 1, 4)
	cases := []struct {
		t    float64
		want int
	}{
		{-0.5, -1}, {0, 0}, {0.5, 0}, {1, 1}, {3.999, 3}, {4, 4}, {100, 4},
	}
	for _, c := range cases {
		if got := g.Index(c.t); got != c.want {
			t.Errorf("Index(%g) = %d, want %d", c.t, got, c.want)
		}
	}
}

func TestIndexProperty(t *testing.T) {
	g, _ := Uniform(5, 0.7, 20)
	f := func(raw float64) bool {
		x := math.Mod(math.Abs(raw), 30)
		j := g.Index(x)
		switch {
		case x < g.Origin():
			return j == -1
		case x >= g.End():
			return j == g.Num()
		default:
			return g.Start(j) <= x && x < g.Start(j)+g.Len(j)
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWindow(t *testing.T) {
	g, _ := Uniform(0, 1, 10)
	cases := []struct {
		s, e        float64
		first, last int
		ok          bool
	}{
		{0, 10, 0, 9, true},           // whole grid
		{2, 5, 2, 4, true},            // aligned: slices 2..4 fit wholly inside [2,5]
		{2.5, 5, 3, 4, true},          // start inside slice 2 pushes to 3
		{2, 4.5, 2, 3, true},          // end inside slice 4 pulls back to 3
		{2.5, 3.4, 0, -1, false},      // no whole slice fits
		{-5, 2, 0, 1, true},           // clipped at origin
		{8, 100, 8, 9, true},          // clipped at horizon
		{5, 5, 0, -1, false},          // empty interval
		{11, 12, 0, -1, false},        // beyond the grid
		{0.0000000001, 3, 0, 2, true}, // boundary tolerance
		{0, 2.9999999999, 0, 2, true}, // boundary tolerance at the end
	}
	for _, c := range cases {
		first, last, ok := g.Window(c.s, c.e)
		if ok != c.ok || (ok && (first != c.first || last != c.last)) {
			t.Errorf("Window(%g, %g) = (%d, %d, %v), want (%d, %d, %v)",
				c.s, c.e, first, last, ok, c.first, c.last, c.ok)
		}
	}
}

func TestWindowSlicesFitInsideInterval(t *testing.T) {
	// Property: every admitted slice lies wholly inside [start, end]
	// (within tolerance).
	g, _ := Uniform(0, 1.3, 15)
	f := func(a, b float64) bool {
		s := math.Mod(math.Abs(a), 20)
		e := s + math.Mod(math.Abs(b), 25)
		first, last, ok := g.Window(s, e)
		if !ok {
			return true
		}
		return g.Start(first) >= s-1e-9 && g.Start(last)+g.Len(last) <= e+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoverUntil(t *testing.T) {
	if n := CoverUntil(0, 2, 10); n != 5 {
		t.Errorf("CoverUntil = %d, want 5", n)
	}
	if n := CoverUntil(0, 3, 10); n != 4 {
		t.Errorf("CoverUntil = %d, want 4", n)
	}
	if n := CoverUntil(5, 1, 5); n != 0 {
		t.Errorf("CoverUntil past target = %d, want 0", n)
	}
	if n := CoverUntil(5, 1, 3); n != 0 {
		t.Errorf("CoverUntil before origin = %d, want 0", n)
	}
}

func TestExtendFactor(t *testing.T) {
	g, _ := Uniform(0, 1, 10)
	if e := g.ExtendFactor(4, 0.5); math.Abs(e-6) > 1e-12 {
		t.Errorf("ExtendFactor = %g, want 6", e)
	}
	if e := g.ExtendFactor(4, 0); e != 4 {
		t.Errorf("ExtendFactor(b=0) = %g, want 4", e)
	}
	// Non-zero origin: extension is measured from the origin.
	h, _ := Uniform(10, 1, 10)
	if e := h.ExtendFactor(14, 0.5); math.Abs(e-16) > 1e-12 {
		t.Errorf("ExtendFactor origin-10 = %g, want 16", e)
	}
}
