package device

import (
	"fmt"
	"strconv"
	"strings"
)

// families is the closed table of topology families, in the order
// Families, GET /v1/topologies and Parse's error message list them. It
// is assigned in init rather than declared as a literal because the
// multi-module builder parses its inner spec through Parse, which reads
// this table.
var families []Family

func init() {
	families = []Family{
		{
			Name:        "linear",
			Form:        "L<n>",
			Description: "n traps in a row joined by single segments (paper §VIII.B)",
			Constraint:  "n >= 1",
			Examples:    []string{"L6"},
			Match:       func(spec string) bool { return spec[0] == 'L' || spec[0] == 'l' },
			Build: func(spec string, capacity int) (*Device, error) {
				n, ok := parseSize(spec[1:])
				if !ok {
					return nil, fmt.Errorf("device: bad linear spec %q", spec)
				}
				return NewLinear(n, capacity)
			},
		},
		{
			Name:        "grid",
			Form:        "G<r>x<c>",
			Description: "r-by-c trap grid with X/Y junctions between row-adjacent traps (generalizes Figure 2b; r >= 3 makes interior junctions X-type)",
			Constraint:  "r, c >= 2",
			Examples:    []string{"G2x3", "G3x5"},
			Match:       func(spec string) bool { return spec[0] == 'G' || spec[0] == 'g' },
			Build: func(spec string, capacity int) (*Device, error) {
				r, c, ok := parseRowsCols(spec[1:])
				if !ok {
					return nil, fmt.Errorf("device: bad grid spec %q", spec)
				}
				return NewGrid(r, c, capacity)
			},
		},
		{
			Name:        "ring",
			Form:        "R<n>",
			Description: "n traps in a cycle: a linear array plus a wraparound segment",
			Constraint:  "n >= 3",
			Examples:    []string{"R6"},
			Match:       func(spec string) bool { return spec[0] == 'R' || spec[0] == 'r' },
			Build: func(spec string, capacity int) (*Device, error) {
				n, ok := parseSize(spec[1:])
				if !ok {
					return nil, fmt.Errorf("device: bad ring spec %q", spec)
				}
				return NewRing(n, capacity)
			},
		},
		{
			Name:        "mesh",
			Form:        "M<r>x<c>",
			Description: "junction-rich mesh: every trap end terminates at a junction (no dead ends) with a vertical shuttling corridor at every column boundary",
			Constraint:  "r, c >= 2",
			Examples:    []string{"M2x3"},
			Match: func(spec string) bool {
				return (spec[0] == 'M' || spec[0] == 'm') && spec[1] >= '0' && spec[1] <= '9'
			},
			Build: func(spec string, capacity int) (*Device, error) {
				r, c, ok := parseRowsCols(spec[1:])
				if !ok {
					return nil, fmt.Errorf("device: bad mesh spec %q", spec)
				}
				return NewMesh(r, c, capacity)
			},
		},
		{
			Name:        "multimodule",
			Form:        "Mod<k>:<inner>",
			Description: "k copies of any inner topology chained by photonic interconnect links (TITAN-style distributed QCCD)",
			Constraint:  "k >= 2; inner topology must expose >= 2 free trap ends (linear or grid, not ring or mesh)",
			Examples:    []string{"Mod2:G2x3", "Mod4:L6"},
			Match: func(spec string) bool {
				return len(spec) >= 4 &&
					(spec[0] == 'M' || spec[0] == 'm') &&
					(spec[1] == 'o' || spec[1] == 'O') &&
					(spec[2] == 'd' || spec[2] == 'D')
			},
			Build: buildMod,
		},
	}
}

// parseSize parses one size of a spec grammar. It accepts only the
// canonical decimal spelling, the one strconv.Itoa prints (no '+', no
// leading zero, nothing left over), so every device has one spelling up
// to case and so one cache key. A negative size parses, and the family's
// builder rejects it with its range error.
func parseSize(s string) (int, bool) {
	n, err := strconv.Atoi(s)
	return n, err == nil && strconv.Itoa(n) == s
}

// parseRowsCols parses the "<r>x<c>" body of a grid or mesh spec.
func parseRowsCols(s string) (rows, cols int, ok bool) {
	rs, cs, found := strings.Cut(s, "x")
	rows, rok := parseSize(rs)
	cols, cok := parseSize(cs)
	return rows, cols, found && rok && cok
}
