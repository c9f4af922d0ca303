package experiments

import (
	"fmt"
	"strings"
)

// Series is one named data series over the shared x axis.
type Series struct {
	// Name labels the series (e.g. an application or "FM-GS").
	Name string
	// Values holds one value per x point; NaN renders as "-".
	Values []float64
	// Format is the fmt verb for values; "%.4g" when empty.
	Format string
}

// value formats a single point.
func (s Series) value(i int) string {
	format := s.Format
	if format == "" {
		format = "%.4g"
	}
	if i >= len(s.Values) {
		return "-"
	}
	v := s.Values[i]
	if v != v { // NaN
		return "-"
	}
	return fmt.Sprintf(format, v)
}

// Table renders series against an integer x axis as an aligned text table:
//
//	title
//	x        name1    name2
//	14       0.123    0.456
func Table(title, xLabel string, xs []int, series []Series) string {
	var b strings.Builder
	if title != "" {
		fmt.Fprintf(&b, "%s\n", title)
	}
	widths := make([]int, len(series)+1)
	widths[0] = len(xLabel)
	for _, x := range xs {
		if n := len(fmt.Sprint(x)); n > widths[0] {
			widths[0] = n
		}
	}
	cells := make([][]string, len(series))
	for j, s := range series {
		widths[j+1] = len(s.Name)
		cells[j] = make([]string, len(xs))
		for i := range xs {
			cells[j][i] = s.value(i)
			if n := len(cells[j][i]); n > widths[j+1] {
				widths[j+1] = n
			}
		}
	}
	pad := func(s string, w int) string {
		if len(s) >= w {
			return s
		}
		return s + strings.Repeat(" ", w-len(s))
	}
	fmt.Fprintf(&b, "%s", pad(xLabel, widths[0]))
	for j, s := range series {
		fmt.Fprintf(&b, "  %s", pad(s.Name, widths[j+1]))
	}
	b.WriteByte('\n')
	for i, x := range xs {
		fmt.Fprintf(&b, "%s", pad(fmt.Sprint(x), widths[0]))
		for j := range series {
			fmt.Fprintf(&b, "  %s", pad(cells[j][i], widths[j+1]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Ratio returns max/min over positive values of xs, or 0 when fewer than
// one positive value exists. The paper quotes best/worst fidelity ratios
// this way (e.g. "15x" for Supremacy trap sizing).
func Ratio(xs []float64) float64 {
	min, max := 0.0, 0.0
	first := true
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		if first {
			min, max = x, x
			first = false
			continue
		}
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if first || min == 0 {
		return 0
	}
	return max / min
}
