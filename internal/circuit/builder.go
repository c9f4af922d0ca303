package circuit

import "fmt"

// Builder accumulates gates with eager validation and records the first
// error, in the style of strings.Builder plus an error latch. It keeps
// generator code (internal/apps) free of repetitive error plumbing while
// still guaranteeing that a finished circuit is valid.
type Builder struct {
	c   *Circuit
	err error
	// seen is the barriers' repeat check (see validate).
	seen []uint64
}

// NewBuilder starts a circuit named name over n qubits.
func NewBuilder(name string, n int) *Builder {
	b := &Builder{c: New(name, n)}
	switch {
	case n <= 0:
		b.err = fmt.Errorf("circuit %q: non-positive qubit count %d", name, n)
	case n > MaxQubits:
		b.err = fmt.Errorf("circuit %q: %d qubits, at most %d fit", name, n, MaxQubits)
	}
	return b
}

// Grow presizes the circuit for n more gates, so a generator that knows
// its gate count appends every gate without regrowing the array.
func (b *Builder) Grow(n int) *Builder {
	if gs := b.c.Gates; n > cap(gs)-len(gs) {
		b.c.Gates = append(make([]Gate, 0, len(gs)+n), gs...)
	}
	return b
}

// Err returns the first validation error encountered, if any.
func (b *Builder) Err() error { return b.err }

// Add appends a gate after validating it.
func (b *Builder) Add(g Gate) *Builder {
	if b.err != nil {
		return b
	}
	if err := g.Validate(b.c.NumQubits); err != nil {
		b.err = fmt.Errorf("gate %d: %w", len(b.c.Gates), err)
		return b
	}
	b.c.add(g)
	return b
}

// Barrier appends a barrier over qs after validating it.
func (b *Builder) Barrier(qs ...int) *Builder {
	if b.err != nil {
		return b
	}
	b.c.AppendBarrier(qs...)
	last := len(b.c.Gates) - 1
	if err := validate(GateBarrier, b.c.Qubits(last), b.c.NumQubits, &b.seen); err != nil {
		b.err = fmt.Errorf("gate %d: %w", last, err)
	}
	return b
}

// H appends a Hadamard on q.
func (b *Builder) H(q int) *Builder { return b.Add(NewGate1(GateH, q)) }

// X appends a Pauli-X on q.
func (b *Builder) X(q int) *Builder { return b.Add(NewGate1(GateX, q)) }

// Y appends a Pauli-Y on q.
func (b *Builder) Y(q int) *Builder { return b.Add(NewGate1(GateY, q)) }

// Z appends a Pauli-Z on q.
func (b *Builder) Z(q int) *Builder { return b.Add(NewGate1(GateZ, q)) }

// S appends a phase gate on q.
func (b *Builder) S(q int) *Builder { return b.Add(NewGate1(GateS, q)) }

// Sdg appends an inverse phase gate on q.
func (b *Builder) Sdg(q int) *Builder { return b.Add(NewGate1(GateSdg, q)) }

// T appends a T gate on q.
func (b *Builder) T(q int) *Builder { return b.Add(NewGate1(GateT, q)) }

// Tdg appends an inverse T gate on q.
func (b *Builder) Tdg(q int) *Builder { return b.Add(NewGate1(GateTdg, q)) }

// RX appends a parameterized X rotation on q.
func (b *Builder) RX(q int, theta float64) *Builder { return b.Add(NewGate1P(GateRX, q, theta)) }

// RY appends a parameterized Y rotation on q.
func (b *Builder) RY(q int, theta float64) *Builder { return b.Add(NewGate1P(GateRY, q, theta)) }

// RZ appends a parameterized Z rotation on q.
func (b *Builder) RZ(q int, theta float64) *Builder { return b.Add(NewGate1P(GateRZ, q, theta)) }

// CNOT appends a controlled-NOT with control a, target t.
func (b *Builder) CNOT(a, t int) *Builder { return b.Add(NewGate2(GateCNOT, a, t)) }

// CZ appends a controlled-Z on a, t.
func (b *Builder) CZ(a, t int) *Builder { return b.Add(NewGate2(GateCZ, a, t)) }

// CPhase appends a controlled-phase of angle theta on a, t.
func (b *Builder) CPhase(a, t int, theta float64) *Builder {
	return b.Add(NewGate2P(GateCPhase, a, t, theta))
}

// ZZ appends a ZZ interaction of angle theta on a, t.
func (b *Builder) ZZ(a, t int, theta float64) *Builder {
	return b.Add(NewGate2P(GateZZ, a, t, theta))
}

// MS appends a native Mølmer-Sørensen gate on a, t.
func (b *Builder) MS(a, t int, theta float64) *Builder {
	return b.Add(NewGate2P(GateMS, a, t, theta))
}

// Swap appends a logical SWAP on a, t.
func (b *Builder) Swap(a, t int) *Builder { return b.Add(NewGate2(GateSwap, a, t)) }

// Toffoli appends the standard 6-CNOT decomposition of a Toffoli gate with
// controls a, b and target t (Nielsen & Chuang Fig. 4.9). The paper's
// SquareRoot and Adder benchmarks arrive pre-decomposed to one- and
// two-qubit gates, so the IR never carries three-qubit gates.
func (b *Builder) Toffoli(a, bq, t int) *Builder {
	b.H(t)
	b.CNOT(bq, t)
	b.Tdg(t)
	b.CNOT(a, t)
	b.T(t)
	b.CNOT(bq, t)
	b.Tdg(t)
	b.CNOT(a, t)
	b.T(bq)
	b.T(t)
	b.H(t)
	b.CNOT(a, bq)
	b.T(a)
	b.Tdg(bq)
	b.CNOT(a, bq)
	return b
}

// MeasureQ appends a measurement on q.
func (b *Builder) MeasureQ(q int) *Builder { return b.Add(Measure(q)) }

// MeasureAll appends measurements on all qubits.
func (b *Builder) MeasureAll() *Builder {
	for q := 0; q < b.c.NumQubits; q++ {
		b.MeasureQ(q)
	}
	return b
}

// Circuit returns the finished circuit, or an error if any Add failed.
func (b *Builder) Circuit() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	return b.c, nil
}

// MustCircuit returns the finished circuit and panics on error. Intended
// for the built-in generators whose parameters are validated upstream.
func (b *Builder) MustCircuit() *Circuit {
	c, err := b.Circuit()
	if err != nil {
		panic(err)
	}
	return c
}
