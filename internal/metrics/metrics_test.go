package metrics

import (
	"bytes"
	"encoding/csv"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestMinMaxMedian(t *testing.T) {
	xs := []float64{3, 1, 4, 1, 5}
	if Min(xs) != 1 || Max(xs) != 5 {
		t.Errorf("min/max %g/%g", Min(xs), Max(xs))
	}
	// The median is the 50th percentile.
	if m := Percentile(xs, 50); m != 3 {
		t.Errorf("median = %g", m)
	}
	if m := Percentile([]float64{1, 2, 3, 4}, 50); m != 2.5 {
		t.Errorf("even median = %g", m)
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should return 0")
	}
}

func TestPercentile(t *testing.T) {
	if Percentile(nil, 50) != 0 {
		t.Error("Percentile(nil) should be 0")
	}
	xs := []float64{15, 20, 35, 40, 50}
	cases := []struct{ p, want float64 }{
		{0, 15}, {100, 50}, {50, 35},
		{25, 20}, {75, 40},
		// rank = 40/100·(5−1) = 1.6 → 20 + 0.6·(35−20) = 29.
		{40, 29},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	// Clamping.
	if Percentile(xs, -5) != 15 || Percentile(xs, 250) != 50 {
		t.Error("out-of-range p not clamped")
	}
	// Percentile must not reorder the caller's slice.
	orig := []float64{3, 1, 2}
	Percentile(orig, 50)
	if orig[0] != 3 || orig[1] != 1 || orig[2] != 2 {
		t.Error("input slice mutated")
	}
}

func TestStatProperties(t *testing.T) {
	f := func(xs []float64) bool {
		clean := xs[:0]
		for _, x := range xs {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				clean = append(clean, x)
			}
		}
		if len(clean) == 0 {
			return true
		}
		med := Percentile(clean, 50)
		lo, hi := Min(clean), Max(clean)
		return med >= lo-1e-9 && med <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("title", "a", "bb")
	tab.AddRow("1", "2")
	tab.AddRow("333")         // short row padded
	tab.AddRow("4", "5", "6") // long row truncated
	tab.AddRow("f", "1.23")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"title", "a", "bb", "333", "1.23", "---"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "6") {
		t.Error("overlong row cell not dropped")
	}
	// Alignment: all lines after the title have equal width per column.
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("lines = %d", len(lines))
	}
}

func TestTableCSV(t *testing.T) {
	tab := NewTable("t", "x", "y")
	tab.AddRow("1", "2")
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "x,y\n1,2\n" {
		t.Errorf("csv = %q", buf.String())
	}
}

func TestTableCSVQuoting(t *testing.T) {
	tab := NewTable("t", "label", "value")
	tab.AddRow(`Waxman, n=50`, "1.5")
	tab.AddRow("multi\nline", `says "hi"`)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output does not re-parse as CSV: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if rows[1][0] != "Waxman, n=50" || rows[1][1] != "1.5" {
		t.Errorf("comma cell round trip: %q", rows[1])
	}
	if rows[2][0] != "multi\nline" || rows[2][1] != `says "hi"` {
		t.Errorf("newline/quote cell round trip: %q", rows[2])
	}
}

func TestEmptyTable(t *testing.T) {
	tab := NewTable("", "only")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "only") {
		t.Errorf("render = %q", buf.String())
	}
}
