// Package circuit defines the program intermediate representation (IR)
// consumed by the QCCD backend compiler: a fully unrolled sequence of gates
// with data (qubit) dependencies and no control flow, exactly as described
// in §V.A and §VI of the paper. It also provides the workload statistics
// that drive the architectural study (Table II).
//
// The IR is flat: a Gate is a 24-byte record with no pointers that holds
// its at most two operands inline, as isa.Op does, so a circuit is one
// gate array plus, when it has barriers, one array of their operands. A
// generator that knows its gate count presizes the array (Builder.Grow),
// so building QFT@512's 655 k gates takes a handful of allocations, and
// the toolflow's memoized circuits hold no per-gate heap objects.
package circuit

import (
	"fmt"
	"math"
	"slices"
)

// Circuit is a fully unrolled quantum program: a named, ordered gate list
// over NumQubits program qubits. The zero value is an empty, unusable
// circuit; construct circuits with New or a Builder.
type Circuit struct {
	// Name identifies the workload (e.g. "qft64") in reports.
	Name string
	// NumQubits is the number of program qubits; operands are [0,NumQubits).
	NumQubits int
	// Gates is the program order. Dependencies are implied: each gate
	// depends on the previous gate touching any of its operands.
	Gates []Gate
	// barriers holds every barrier's operands back to back; each barrier
	// gate records its span.
	barriers []int32
}

// New returns an empty circuit over n qubits.
func New(name string, n int) *Circuit {
	return &Circuit{Name: name, NumQubits: n}
}

// Append adds gates to the end of the program without validation. Use
// Validate (or a Builder) to check the result. A barrier's operands live
// in its own circuit's table, so Append panics on a barrier that names
// any: add barriers with AppendBarrier.
func (c *Circuit) Append(gs ...Gate) {
	for _, g := range gs {
		c.add(g)
	}
}

// add appends one gate as Append does.
func (c *Circuit) add(g Gate) {
	if g.Kind == GateBarrier && g.q[1] != 0 {
		panic("circuit: Append of a barrier with operands; use AppendBarrier")
	}
	c.Gates = append(c.Gates, g)
}

// AppendBarrier adds a barrier over qs to the end of the program without
// validation, keeping its operands in the circuit's barrier table.
func (c *Circuit) AppendBarrier(qs ...int) {
	c.Gates = append(c.Gates, Gate{Kind: GateBarrier})
	g := c.growBarrier(len(qs))
	for _, q := range qs {
		c.barriers = append(c.barriers, operand(q))
	}
	g.q[1] += int32(len(qs))
}

// ExtendBarrier adds qubits first, first+1, ..., first+n-1 to the
// operands of the program's last gate, which must be a barrier, without
// validation. It writes them straight into the barrier table, so a
// barrier whose operands come in runs, as OpenQASM's register operands
// do, never holds them in a list of its own first.
func (c *Circuit) ExtendBarrier(first, n int) {
	g := c.growBarrier(n)
	for q := first; q < first+n; q++ {
		c.barriers = append(c.barriers, operand(q))
	}
	g.q[1] += int32(n)
}

// growBarrier makes room in the barrier table for n more operands of the
// program's last gate, which must be a barrier, and returns that gate.
func (c *Circuit) growBarrier(n int) *Gate {
	if len(c.Gates) == 0 || c.Gates[len(c.Gates)-1].Kind != GateBarrier {
		panic("circuit: barrier operands added after a gate that is not a barrier")
	}
	if n > math.MaxInt32-len(c.barriers) {
		panic("circuit: barrier operands overflow the circuit's table")
	}
	c.barriers = slices.Grow(c.barriers, n)
	g := &c.Gates[len(c.Gates)-1]
	if g.q[1] == 0 {
		// A barrier with no operands yet has no span: start one at the
		// table's end. A barrier with operands that is the last gate
		// already ends there.
		g.q[0] = int32(len(c.barriers))
	}
	return g
}

// Qubits returns gate i's operands, control first for a controlled gate,
// without allocating. The slice aliases the circuit — the gate's inline
// operands, or a barrier's span of the barrier table — so writes through
// it change the gate.
func (c *Circuit) Qubits(i int) []int32 {
	g := &c.Gates[i]
	if g.Kind == GateBarrier {
		off, end := g.q[0], g.q[0]+g.q[1]
		return c.barriers[off:end:end]
	}
	return g.q[:g.n]
}

// Validate checks every gate against the qubit bound and arity rules.
func (c *Circuit) Validate() error {
	if c.NumQubits <= 0 {
		return fmt.Errorf("circuit %q: non-positive qubit count %d", c.Name, c.NumQubits)
	}
	if c.NumQubits > MaxQubits {
		return fmt.Errorf("circuit %q: %d qubits, at most %d fit", c.Name, c.NumQubits, MaxQubits)
	}
	var seen []uint64 // the barriers' repeat check (see validate)
	for i := range c.Gates {
		if err := validate(c.Gates[i].Kind, c.Qubits(i), c.NumQubits, &seen); err != nil {
			return fmt.Errorf("gate %d: %w", i, err)
		}
	}
	return nil
}

// CountKind returns the number of gates of kind k.
func (c *Circuit) CountKind(k Kind) int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind == k {
			n++
		}
	}
	return n
}

// TwoQubitGates returns the number of two-qubit entangling gates.
func (c *Circuit) TwoQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.IsTwoQubit() {
			n++
		}
	}
	return n
}

// SingleQubitGates returns the number of unitary single-qubit gates.
func (c *Circuit) SingleQubitGates() int {
	n := 0
	for _, g := range c.Gates {
		if g.Kind.IsSingleQubit() {
			n++
		}
	}
	return n
}

// Measurements returns the number of measurement operations.
func (c *Circuit) Measurements() int { return c.CountKind(GateMeasure) }

// Clone returns a deep copy of the circuit: its gates and barrier
// operands share no memory with c's.
func (c *Circuit) Clone() *Circuit {
	return &Circuit{
		Name: c.Name, NumQubits: c.NumQubits,
		Gates: slices.Clone(c.Gates), barriers: slices.Clone(c.barriers),
	}
}

// MeasureAll appends a measurement on every qubit, as the NISQ benchmarks
// do at the end of the program.
func (c *Circuit) MeasureAll() {
	for q := 0; q < c.NumQubits; q++ {
		c.Append(Measure(q))
	}
}

// FirstUseOrder returns the program qubits ordered by the position of
// their first appearance in the gate stream, with operands of one gate
// kept in operand order (control before target). Qubits never touched come
// last, in index order. This is the ordering the greedy mapper uses (§VI).
func (c *Circuit) FirstUseOrder() []int {
	order := make([]int, 0, c.NumQubits)
	seen := make([]bool, c.NumQubits)
	for i := range c.Gates {
		for _, q := range c.Qubits(i) {
			if !seen[q] {
				seen[q] = true
				order = append(order, int(q))
			}
		}
	}
	for q := 0; q < c.NumQubits; q++ {
		if !seen[q] {
			order = append(order, q)
		}
	}
	return order
}
