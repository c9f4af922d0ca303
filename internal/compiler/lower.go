package compiler

import (
	"fmt"
	"math"

	"repro/internal/circuit"
)

// LowerToNative rewrites a circuit into the native trapped-ion gate set:
// Mølmer-Sørensen (MS) entangling gates plus single-qubit rotations,
// following the standard constructions the paper cites ([76], Maslov
// 2017). Abstract two-qubit gates expand as:
//
//	CNOT       -> 1 MS + 4 rotations
//	CZ         -> 1 MS + 6 rotations (target H-conjugated CNOT)
//	RZZ(θ)     -> 1 MS + 4 rotations (H⊗H conjugation)
//	CPhase(θ)  -> 2 MS + 11 rotations (2-CNOT decomposition)
//	SWAP       -> 3 MS + 12 rotations
//
// The constructions are verified unitary-equivalent (up to global phase)
// against the state-vector simulator in internal/statevec.
//
// Single-qubit gates, measurements and barriers pass through unchanged.
// The MS-class gate count of the Table II suite is invariant under this
// pass (its generators already emit one MS-class gate per entangler), but
// lowering makes single-qubit overhead explicit for timing studies.
func LowerToNative(c *circuit.Circuit) (*circuit.Circuit, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: lower: %w", err)
	}
	size := 0
	for i := range c.Gates {
		size += loweredLen(c.Gates[i].Kind)
	}
	out := circuit.NewBuilder(c.Name, c.NumQubits).Grow(size)
	for i, g := range c.Gates {
		switch g.Kind {
		case circuit.GateCNOT:
			emitCNOT(out, g.Qubit(0), g.Qubit(1))
		case circuit.GateCZ:
			// CZ = (I ⊗ H) CNOT (I ⊗ H).
			out.H(g.Qubit(1))
			emitCNOT(out, g.Qubit(0), g.Qubit(1))
			out.H(g.Qubit(1))
		case circuit.GateZZ:
			// exp(-iθ/2 Z⊗Z) = (H⊗H) exp(-iθ/2 X⊗X) (H⊗H).
			a, b := g.Qubit(0), g.Qubit(1)
			out.H(a).H(b).MS(a, b, g.Param).H(a).H(b)
		case circuit.GateCPhase:
			// CP(θ) = RZ(θ/2) a · CNOT · RZ(-θ/2) b · CNOT · RZ(θ/2) b.
			a, b := g.Qubit(0), g.Qubit(1)
			out.RZ(a, g.Param/2)
			emitCNOT(out, a, b)
			out.RZ(b, -g.Param/2)
			emitCNOT(out, a, b)
			out.RZ(b, g.Param/2)
		case circuit.GateSwap:
			a, b := g.Qubit(0), g.Qubit(1)
			emitCNOT(out, a, b)
			emitCNOT(out, b, a)
			emitCNOT(out, a, b)
		case circuit.GateBarrier:
			qs := c.Qubits(i)
			ints := make([]int, len(qs))
			for j, q := range qs {
				ints[j] = int(q)
			}
			out.Barrier(ints...)
		default:
			out.Add(g)
		}
	}
	lowered, err := out.Circuit()
	if err != nil {
		return nil, fmt.Errorf("compiler: lower produced invalid circuit: %w", err)
	}
	return lowered, nil
}

// loweredLen is how many gates LowerToNative emits for one gate of kind k.
func loweredLen(k circuit.Kind) int {
	switch k {
	case circuit.GateCNOT, circuit.GateZZ:
		return 5
	case circuit.GateCZ:
		return 7
	case circuit.GateCPhase:
		return 13
	case circuit.GateSwap:
		return 15
	}
	return 1
}

// emitCNOT appends the 1-MS CNOT construction (Maslov 2017): Ry(π/2) on
// the control, the fully-entangling XX interaction (exp(-i π/4 X⊗X),
// θ = π/2 in our exp(-i θ/2 X⊗X) convention), then local -π/2 rotations.
func emitCNOT(out *circuit.Builder, ctrl, tgt int) {
	out.RY(ctrl, math.Pi/2).MS(ctrl, tgt, math.Pi/2).
		RX(ctrl, -math.Pi/2).RX(tgt, -math.Pi/2).RY(ctrl, -math.Pi/2)
}
