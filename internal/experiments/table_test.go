package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	out := Table("title", "cap", []int{14, 18}, []Series{
		{Name: "QFT", Values: []float64{0.5, 1.25}, Format: "%.2f"},
		{Name: "BV", Values: []float64{0.1}, Format: "%.2f"}, // short series
	})
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "title") {
		t.Errorf("missing title: %q", lines[0])
	}
	if !strings.Contains(lines[1], "QFT") || !strings.Contains(lines[1], "BV") {
		t.Errorf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "0.50") {
		t.Errorf("row = %q", lines[2])
	}
	// Short series renders "-" for the missing point.
	if !strings.Contains(lines[3], "-") {
		t.Errorf("missing point should render '-': %q", lines[3])
	}
}

func TestTableNaN(t *testing.T) {
	out := Table("", "x", []int{1}, []Series{{Name: "s", Values: []float64{math.NaN()}}})
	if !strings.Contains(out, "-") {
		t.Errorf("NaN should render '-':\n%s", out)
	}
}

func TestTableDefaultFormat(t *testing.T) {
	out := Table("", "x", []int{1}, []Series{{Name: "s", Values: []float64{0.125}}})
	if !strings.Contains(out, "0.125") {
		t.Errorf("default format output:\n%s", out)
	}
}

func TestWriteCSV(t *testing.T) {
	var b strings.Builder
	err := writeCSV(&b, []string{"a", "b"}, [][]string{
		{"1", "2"},
		{"with,comma", "with\"quote"},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := "a,b\n1,2\n\"with,comma\",\"with\"\"quote\"\n"
	if b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestWriteCSVRowWidthMismatch(t *testing.T) {
	var b strings.Builder
	if err := writeCSV(&b, []string{"a"}, [][]string{{"1", "2"}}); err == nil {
		t.Error("mismatched row width should fail")
	}
}

func TestRatio(t *testing.T) {
	if got := Ratio([]float64{0.1, 0.5, 0.02}); math.Abs(got-25) > 1e-12 {
		t.Errorf("Ratio = %g, want 25", got)
	}
	if got := Ratio([]float64{0.5}); got != 1 {
		t.Errorf("single value ratio = %g, want 1", got)
	}
	if got := Ratio(nil); got != 0 {
		t.Errorf("empty ratio = %g, want 0", got)
	}
	// Non-positive values are ignored.
	if got := Ratio([]float64{-1, 0, 2, 4}); got != 2 {
		t.Errorf("ratio with junk = %g, want 2", got)
	}
}
