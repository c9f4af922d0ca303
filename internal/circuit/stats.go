package circuit

import "fmt"

// Pattern classifies the dominant two-qubit communication pattern of a
// workload, mirroring the "Communication Pattern" column of Table II.
type Pattern string

const (
	// PatternNearestNeighbor means two-qubit gates overwhelmingly act on
	// index-adjacent qubits (Supremacy, QAOA).
	PatternNearestNeighbor Pattern = "nearest-neighbor"
	// PatternShortRange means gates act on nearby but not strictly
	// adjacent qubits (Adder).
	PatternShortRange Pattern = "short-range"
	// PatternShortAndLong means a mix of short and long index distances
	// (SquareRoot, BV).
	PatternShortAndLong Pattern = "short+long-range"
	// PatternAllDistances means gates occur at essentially all index
	// distances (QFT).
	PatternAllDistances Pattern = "all-distances"
)

// Stats summarizes a workload for Table II and for the study's analysis.
type Stats struct {
	Name        string
	Qubits      int
	Gate1Q      int
	Gate2Q      int
	Measures    int
	Depth       int
	MaxDistance int     // largest |a-b| over 2Q gates
	MeanDist    float64 // mean |a-b| over 2Q gates
	NNFraction  float64 // fraction of 2Q gates with |a-b| == 1
	Pattern     Pattern
}

// ComputeStats derives workload statistics from a circuit.
func ComputeStats(c *Circuit) Stats {
	s := Stats{
		Name:     c.Name,
		Qubits:   c.NumQubits,
		Gate1Q:   c.SingleQubitGates(),
		Gate2Q:   c.TwoQubitGates(),
		Measures: c.Measurements(),
	}
	s.Depth = depth(c)
	var sum, nn int
	for _, g := range c.Gates {
		if !g.IsTwoQubit() {
			continue
		}
		d := g.Qubit(0) - g.Qubit(1)
		if d < 0 {
			d = -d
		}
		sum += d
		if d == 1 {
			nn++
		}
		if d > s.MaxDistance {
			s.MaxDistance = d
		}
	}
	if s.Gate2Q > 0 {
		s.MeanDist = float64(sum) / float64(s.Gate2Q)
		s.NNFraction = float64(nn) / float64(s.Gate2Q)
	}
	s.Pattern = classify(s, c.NumQubits)
	return s
}

// depth returns the length of c's longest dependency chain, counting
// every gate, barriers included, as one level. A gate sits one level
// above the deepest earlier gate on any of its operands, so one pass
// that keeps each qubit's last level finds it. An empty circuit has
// depth 0.
func depth(c *Circuit) int {
	level := make([]int32, c.NumQubits) // the level of the last gate on each qubit
	var deepest int32
	for i := range c.Gates {
		qs := c.Qubits(i)
		var l int32
		for _, q := range qs {
			l = max(l, level[q])
		}
		l++
		for _, q := range qs {
			level[q] = l
		}
		deepest = max(deepest, l)
	}
	return int(deepest)
}

// classify buckets a distance profile into a Table II pattern label.
func classify(s Stats, n int) Pattern {
	switch {
	case s.Gate2Q == 0:
		return PatternShortRange
	case s.NNFraction >= 0.95:
		return PatternNearestNeighbor
	case s.MeanDist >= float64(n)/4 && s.MaxDistance >= n-2:
		return PatternAllDistances
	case s.MaxDistance >= n/2:
		return PatternShortAndLong
	default:
		return PatternShortRange
	}
}

// String renders the stats as one Table II-style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-12s qubits=%-3d 2Q=%-5d 1Q=%-5d depth=%-5d pattern=%s",
		s.Name, s.Qubits, s.Gate2Q, s.Gate1Q, s.Depth, s.Pattern)
}
