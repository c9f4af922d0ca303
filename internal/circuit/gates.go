package circuit

import (
	"fmt"
	"math"
	"slices"
)

// Kind identifies a gate operation in the program IR.
//
// The IR deliberately mirrors the gate vocabulary that the paper's language
// frontends (Qiskit, Cirq, ScaffCC via OpenQASM) emit: a universal set of
// single-qubit rotations and Clifford gates, a family of two-qubit
// entangling gates, and measurement. The backend compiler lowers every
// two-qubit gate to the native Mølmer-Sørensen (MS) primitive plus
// single-qubit corrections (see internal/compiler).
type Kind uint8

const (
	// Invalid is the zero Kind; it never appears in a valid circuit.
	Invalid Kind = iota

	// Single-qubit gates.
	GateX
	GateY
	GateZ
	GateH
	GateS
	GateSdg
	GateT
	GateTdg
	GateRX // parameterized rotation about X
	GateRY // parameterized rotation about Y
	GateRZ // parameterized rotation about Z

	// Two-qubit gates.
	GateMS     // native XX-type Mølmer-Sørensen entangling gate
	GateCNOT   // controlled-NOT
	GateCZ     // controlled-Z
	GateCPhase // parameterized controlled-phase
	GateZZ     // parameterized ZZ interaction (QAOA cost term)
	GateSwap   // logical SWAP

	// Non-unitary operations.
	GateMeasure // computational-basis measurement
	GateBarrier // scheduling barrier across the listed qubits
)

var kindNames = [...]string{
	Invalid:     "invalid",
	GateX:       "x",
	GateY:       "y",
	GateZ:       "z",
	GateH:       "h",
	GateS:       "s",
	GateSdg:     "sdg",
	GateT:       "t",
	GateTdg:     "tdg",
	GateRX:      "rx",
	GateRY:      "ry",
	GateRZ:      "rz",
	GateMS:      "ms",
	GateCNOT:    "cx",
	GateCZ:      "cz",
	GateCPhase:  "cp",
	GateZZ:      "rzz",
	GateSwap:    "swap",
	GateMeasure: "measure",
	GateBarrier: "barrier",
}

// String returns the lower-case OpenQASM-style mnemonic for the gate kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Arity reports how many qubits a gate of this kind acts on. Barrier is
// variadic and reports -1.
func (k Kind) Arity() int {
	switch k {
	case GateX, GateY, GateZ, GateH, GateS, GateSdg, GateT, GateTdg,
		GateRX, GateRY, GateRZ, GateMeasure:
		return 1
	case GateMS, GateCNOT, GateCZ, GateCPhase, GateZZ, GateSwap:
		return 2
	case GateBarrier:
		return -1
	default:
		return 0
	}
}

// IsTwoQubit reports whether the kind is an entangling two-qubit gate.
func (k Kind) IsTwoQubit() bool { return k.Arity() == 2 }

// IsSingleQubit reports whether the kind is a unitary single-qubit gate.
func (k Kind) IsSingleQubit() bool { return k.Arity() == 1 && k != GateMeasure }

// Parameterized reports whether the kind carries a rotation angle.
func (k Kind) Parameterized() bool {
	switch k {
	case GateRX, GateRY, GateRZ, GateCPhase, GateZZ, GateMS:
		return true
	}
	return false
}

// KindByName maps an OpenQASM-style mnemonic back to a Kind. It returns
// Invalid for unknown names.
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name && Kind(k) != Invalid {
			return Kind(k)
		}
	}
	return Invalid
}

// Gate is a single operation in the program IR: a 24-byte record with no
// pointers, so a circuit's gates are one flat allocation the garbage
// collector never scans. A one- or two-qubit gate holds its operands
// inline (control first for controlled gates); Qubit reads them. A
// barrier's operands, which any number of qubits may make up, live in a
// side table on its Circuit, and Circuit.Qubits returns any gate's
// operands. Operands are 32-bit, as isa.Op's are, which bounds a circuit
// to MaxQubits qubits. Param is the rotation angle in radians for
// parameterized kinds and is ignored otherwise.
type Gate struct {
	Kind Kind
	// n counts the inline operands in q. A barrier keeps none inline: q
	// holds the offset and count of its operands in the circuit's table.
	n     uint8
	q     [2]int32
	Param float64
}

// MaxQubits bounds a circuit's qubit count: operands are stored in 32
// bits.
const MaxQubits = math.MaxInt32

// operand narrows a qubit index to its stored width, saturating an index
// no int32 holds, so it stays out of range for every circuit.
func operand(q int) int32 {
	switch {
	case q > math.MaxInt32:
		return math.MaxInt32
	case q < math.MinInt32:
		return math.MinInt32
	}
	return int32(q)
}

// NewGate1 builds a single-qubit gate.
func NewGate1(k Kind, q int) Gate { return Gate{Kind: k, n: 1, q: [2]int32{operand(q)}} }

// NewGate1P builds a parameterized single-qubit gate.
func NewGate1P(k Kind, q int, theta float64) Gate {
	return Gate{Kind: k, n: 1, q: [2]int32{operand(q)}, Param: theta}
}

// NewGate2 builds a two-qubit gate.
func NewGate2(k Kind, a, b int) Gate {
	return Gate{Kind: k, n: 2, q: [2]int32{operand(a), operand(b)}}
}

// NewGate2P builds a parameterized two-qubit gate.
func NewGate2P(k Kind, a, b int, theta float64) Gate {
	return Gate{Kind: k, n: 2, q: [2]int32{operand(a), operand(b)}, Param: theta}
}

// Measure builds a measurement on qubit q.
func Measure(q int) Gate { return NewGate1(GateMeasure, q) }

// IsTwoQubit reports whether g is an entangling two-qubit gate.
func (g Gate) IsTwoQubit() bool { return g.Kind.IsTwoQubit() }

// Qubit returns operand i of a one- or two-qubit gate, control first. It
// panics when the gate has no operand i, as a barrier, whose operands
// live in its circuit, has none.
func (g Gate) Qubit(i int) int { return int(g.q[:g.n][i]) }

// Validate checks arity and operand distinctness against numQubits. The
// same check runs for every gate a Builder adds and every gate of a
// validated circuit, so fixed-arity gates compare their operands instead
// of hashing them. A barrier's operands live in its circuit, so for a
// barrier Validate checks the kind alone; Circuit.Validate and
// Builder.Barrier check its operands.
func (g Gate) Validate(numQubits int) error {
	if g.Kind == GateBarrier {
		return nil
	}
	return validate(g.Kind, g.q[:g.n], numQubits)
}

// validate checks one gate's kind and operands against numQubits.
func validate(k Kind, qs []int32, numQubits int) error {
	if k == Invalid {
		return fmt.Errorf("circuit: invalid gate kind")
	}
	want := k.Arity()
	if want >= 0 && len(qs) != want {
		return fmt.Errorf("circuit: gate %s wants %d qubits, has %d", k, want, len(qs))
	}
	// A barrier may span every qubit, so it tracks seen operands in a
	// bitset; a fixed-arity gate has at most two operands to compare.
	var seen []uint64
	if want < 0 {
		seen = make([]uint64, (numQubits+63)/64)
	}
	for i, q := range qs {
		if q < 0 || int(q) >= numQubits {
			return fmt.Errorf("circuit: gate %s operand %d out of range [0,%d)", k, q, numQubits)
		}
		var repeat bool
		if seen != nil {
			repeat = seen[q/64]&(1<<(q%64)) != 0
			seen[q/64] |= 1 << (q % 64)
		} else {
			repeat = slices.Contains(qs[:i], q)
		}
		if repeat {
			return fmt.Errorf("circuit: gate %s repeats operand %d", k, q)
		}
	}
	return nil
}

// String renders the gate in OpenQASM-like form, e.g. "cx q[0],q[3]". A
// barrier renders without its operands, which live in its circuit.
func (g Gate) String() string {
	s := g.Kind.String()
	if g.Kind.Parameterized() {
		s += fmt.Sprintf("(%g)", g.Param)
	}
	for i, q := range g.q[:g.n] {
		if i == 0 {
			s += " "
		} else {
			s += ","
		}
		s += fmt.Sprintf("q[%d]", q)
	}
	return s
}
