package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/isa"
)

// Gantt renders the trace as an ASCII timeline, one row per device
// resource, bucketing time into width columns. An op marks every bucket
// its interval touches with its kind, so where ops share a bucket the
// one later in the trace shows:
// g=gate2/swap, 1=gate1, m=measure, S=split, M=merge, .=move, J=junction,
// L=link transit, x=ion-swap, space=idle. Useful for eyeballing
// parallelism and congestion from cmd/qccdsim -gantt.
func (tr Trace) Gantt(width int) string {
	if len(tr) == 0 {
		return "(empty trace)\n"
	}
	if width < 10 {
		width = 10
	}
	end := 0.0
	resources := map[string][]TraceEntry{}
	for _, e := range tr {
		if e.End > end {
			end = e.End
		}
		resources[e.Resource] = append(resources[e.Resource], e)
	}
	if end == 0 {
		return "(zero-length trace)\n"
	}
	names := make([]string, 0, len(resources))
	for name := range resources {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		// Traps first, then segments, then junctions, numerically.
		rank := func(s string) (int, int) {
			var n int
			fmt.Sscanf(s[1:], "%d", &n)
			switch s[0] {
			case 'T':
				return 0, n
			case 's':
				return 1, n
			default:
				return 2, n
			}
		}
		ri, ni := rank(names[i])
		rj, nj := rank(names[j])
		if ri != rj {
			return ri < rj
		}
		return ni < nj
	})

	bucket := end / float64(width)
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: %.1fµs total, %.1fµs per column\n", end, bucket)
	for _, name := range names {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		for _, e := range resources[name] {
			lo := int(e.Start / bucket)
			hi := int(e.End / bucket)
			if hi >= width {
				hi = width - 1
			}
			for i := lo; i <= hi; i++ {
				row[i] = ganttGlyph(e)
			}
		}
		fmt.Fprintf(&b, "%-4s |%s|\n", name, row)
	}
	return b.String()
}

func ganttGlyph(e TraceEntry) byte {
	switch e.Kind {
	case isa.OpGate2, isa.OpSwapGS:
		return 'g'
	case isa.OpGate1:
		return '1'
	case isa.OpMeasure:
		return 'm'
	case isa.OpSplit:
		return 'S'
	case isa.OpMerge:
		return 'M'
	case isa.OpMove:
		return '.'
	case isa.OpJunctionCross:
		return 'J'
	case isa.OpLinkTransit:
		return 'L'
	case isa.OpIonSwap:
		return 'x'
	}
	return '?'
}
