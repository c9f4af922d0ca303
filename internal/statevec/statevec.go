// Package statevec is a dense state-vector simulator for small circuits
// (up to ~20 qubits). The QCCD toolflow's reliability model is a fidelity
// product (§V.B) that never tracks amplitudes, and no toolflow path
// imports this package: it is a test oracle. Its tests check that the
// benchmark generators produce circuits that compute what they claim (BV
// recovers its secret string, the Cuccaro adder adds, Grover amplifies
// the marked state, QFT∘QFT⁻¹ is the identity) and that
// compiler.LowerToNative preserves the state; internal/difftest compares
// it with the stabilizer tableau on Clifford circuits.
//
// Qubit 0 is the least-significant bit of the basis-state index.
package statevec

import (
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
)

// MaxQubits bounds the simulable register (2^20 amplitudes ≈ 16 MiB).
const MaxQubits = 20

// State is a normalized quantum state over n qubits.
type State struct {
	n   int
	amp []complex128
}

// NewState returns |0...0> over n qubits.
func NewState(n int) (*State, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("statevec: qubit count %d outside [1,%d]", n, MaxQubits)
	}
	s := &State{n: n, amp: make([]complex128, 1<<uint(n))}
	s.amp[0] = 1
	return s, nil
}

// Probability returns |amp|^2 of basis state idx.
func (s *State) Probability(idx int) float64 {
	a := s.amp[idx]
	return real(a)*real(a) + imag(a)*imag(a)
}

// apply1 applies a 2x2 unitary m to qubit q.
func (s *State) apply1(q int, m [2][2]complex128) {
	mask := 1 << uint(q)
	for i := range s.amp {
		if i&mask != 0 {
			continue
		}
		j := i | mask
		a0, a1 := s.amp[i], s.amp[j]
		s.amp[i] = m[0][0]*a0 + m[0][1]*a1
		s.amp[j] = m[1][0]*a0 + m[1][1]*a1
	}
}

// apply2 applies a 4x4 unitary to qubits (a,b); the row/column index is
// (bit_a<<1)|bit_b.
func (s *State) apply2(qa, qb int, m [4][4]complex128) {
	maskA := 1 << uint(qa)
	maskB := 1 << uint(qb)
	for i := range s.amp {
		if i&maskA != 0 || i&maskB != 0 {
			continue
		}
		idx := [4]int{i, i | maskB, i | maskA, i | maskA | maskB}
		var in [4]complex128
		for k := 0; k < 4; k++ {
			in[k] = s.amp[idx[k]]
		}
		for r := 0; r < 4; r++ {
			var acc complex128
			for k := 0; k < 4; k++ {
				acc += m[r][k] * in[k]
			}
			s.amp[idx[r]] = acc
		}
	}
}

// Run evolves |0...0> under circuit c, ignoring barriers and
// measurements, and returns the final state.
func Run(c *circuit.Circuit) (*State, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("statevec: %w", err)
	}
	s, err := NewState(c.NumQubits)
	if err != nil {
		return nil, err
	}
	for i, g := range c.Gates {
		if err := s.Apply(g); err != nil {
			return nil, fmt.Errorf("statevec: gate %d: %w", i, err)
		}
	}
	return s, nil
}

// Apply applies one IR gate to the state. Barriers and measurements are
// no-ops (measurement statistics are read from the final amplitudes).
func (s *State) Apply(g circuit.Gate) error {
	if err := g.Validate(s.n); err != nil {
		return err
	}
	inv := complex(1/math.Sqrt2, 0)
	ii := complex(0, 1)
	switch g.Kind {
	case circuit.GateBarrier, circuit.GateMeasure:
		return nil
	case circuit.GateX:
		s.apply1(g.Qubit(0), [2][2]complex128{{0, 1}, {1, 0}})
	case circuit.GateY:
		s.apply1(g.Qubit(0), [2][2]complex128{{0, -ii}, {ii, 0}})
	case circuit.GateZ:
		s.apply1(g.Qubit(0), [2][2]complex128{{1, 0}, {0, -1}})
	case circuit.GateH:
		s.apply1(g.Qubit(0), [2][2]complex128{{inv, inv}, {inv, -inv}})
	case circuit.GateS:
		s.apply1(g.Qubit(0), [2][2]complex128{{1, 0}, {0, ii}})
	case circuit.GateSdg:
		s.apply1(g.Qubit(0), [2][2]complex128{{1, 0}, {0, -ii}})
	case circuit.GateT:
		s.apply1(g.Qubit(0), [2][2]complex128{{1, 0}, {0, cmplx.Exp(ii * math.Pi / 4)}})
	case circuit.GateTdg:
		s.apply1(g.Qubit(0), [2][2]complex128{{1, 0}, {0, cmplx.Exp(-ii * math.Pi / 4)}})
	case circuit.GateRX:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(0, -math.Sin(g.Param/2))
		s.apply1(g.Qubit(0), [2][2]complex128{{c, sn}, {sn, c}})
	case circuit.GateRY:
		c := complex(math.Cos(g.Param/2), 0)
		sn := complex(math.Sin(g.Param/2), 0)
		s.apply1(g.Qubit(0), [2][2]complex128{{c, -sn}, {sn, c}})
	case circuit.GateRZ:
		em := cmplx.Exp(-ii * complex(g.Param/2, 0))
		ep := cmplx.Exp(ii * complex(g.Param/2, 0))
		s.apply1(g.Qubit(0), [2][2]complex128{{em, 0}, {0, ep}})
	case circuit.GateCNOT:
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
			{0, 0, 1, 0},
		})
	case circuit.GateCZ:
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, -1},
		})
	case circuit.GateCPhase:
		ph := cmplx.Exp(ii * complex(g.Param, 0))
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{1, 0, 0, 0},
			{0, 1, 0, 0},
			{0, 0, 1, 0},
			{0, 0, 0, ph},
		})
	case circuit.GateZZ:
		// exp(-i θ/2 Z⊗Z): diagonal phases by parity.
		em := cmplx.Exp(-ii * complex(g.Param/2, 0))
		ep := cmplx.Exp(ii * complex(g.Param/2, 0))
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{em, 0, 0, 0},
			{0, ep, 0, 0},
			{0, 0, ep, 0},
			{0, 0, 0, em},
		})
	case circuit.GateMS:
		// exp(-i θ/2 X⊗X).
		c := complex(math.Cos(g.Param/2), 0)
		sn := -ii * complex(math.Sin(g.Param/2), 0)
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{c, 0, 0, sn},
			{0, c, sn, 0},
			{0, sn, c, 0},
			{sn, 0, 0, c},
		})
	case circuit.GateSwap:
		s.apply2(g.Qubit(0), g.Qubit(1), [4][4]complex128{
			{1, 0, 0, 0},
			{0, 0, 1, 0},
			{0, 1, 0, 0},
			{0, 0, 0, 1},
		})
	default:
		return fmt.Errorf("unsupported gate kind %s", g.Kind)
	}
	return nil
}
