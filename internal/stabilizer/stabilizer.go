// Package stabilizer is a Clifford-circuit simulator in the
// Aaronson-Gottesman CHP tableau representation ("Improved simulation of
// stabilizer circuits", PRA 70, 052328). Where the dense state vector
// (internal/statevec) caps out near 20 qubits, the tableau tracks an
// n-qubit stabilizer state in O(n²) bits and applies each Clifford gate
// in O(n) word operations, so it reaches Surface@d syndrome-extraction
// circuits (50-200+ qubits). No toolflow path imports this package: it
// is a test oracle, which checks the surface-code syndromes and which
// internal/difftest compares with internal/statevec.
//
// The supported gate set is the Clifford subset of the circuit IR:
// X, Y, Z, H, S, S†, CNOT, CZ and SWAP, plus computational-basis
// measurement. IsClifford reports whether a circuit stays inside it.
//
// Qubit 0 is the least-significant bit of a basis-state index, matching
// internal/statevec, so the two simulators' distributions are directly
// comparable; internal/difftest requires them to agree on random
// Clifford circuits and on the BV and surface-code workloads.
package stabilizer

import (
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/circuit"
)

// MaxQubits bounds the tableau width. A 4096-qubit tableau holds
// 2·(2n+1)·n bits ≈ 8 MiB — far past the TITAN-scale devices on the
// roadmap, while still refusing absurd requests before allocating.
const MaxQubits = 4096

// MaxDistributionQubits bounds Distribution: basis-state indices are
// packed into a uint64, so support enumeration needs n <= 64.
const MaxDistributionQubits = 64

// Tableau is the CHP representation of an n-qubit stabilizer state:
// rows 0..n-1 are destabilizer generators, rows n..2n-1 stabilizer
// generators, row 2n is scratch space for deterministic measurement.
// Each row is a Pauli string (bit-packed X and Z parts) with a sign bit.
type Tableau struct {
	n int // qubits
	w int // uint64 words per row
	x [][]uint64
	z [][]uint64
	r []uint8 // sign bit per row: 0 ⇒ +1, 1 ⇒ −1
}

// New returns the tableau of |0...0⟩ over n qubits: destabilizer i is
// X_i, stabilizer i is Z_i, all signs +1.
func New(n int) (*Tableau, error) {
	if n < 1 || n > MaxQubits {
		return nil, fmt.Errorf("stabilizer: qubit count %d outside [1,%d]", n, MaxQubits)
	}
	w := (n + 63) / 64
	t := &Tableau{
		n: n,
		w: w,
		x: make([][]uint64, 2*n+1),
		z: make([][]uint64, 2*n+1),
		r: make([]uint8, 2*n+1),
	}
	for i := range t.x {
		t.x[i] = make([]uint64, w)
		t.z[i] = make([]uint64, w)
	}
	for i := 0; i < n; i++ {
		t.x[i][i>>6] |= 1 << (i & 63)
		t.z[n+i][i>>6] |= 1 << (i & 63)
	}
	return t, nil
}

// NumQubits returns the register width.
func (t *Tableau) NumQubits() int { return t.n }

// Clone returns an independent deep copy.
func (t *Tableau) Clone() *Tableau {
	c := &Tableau{
		n: t.n,
		w: t.w,
		x: make([][]uint64, len(t.x)),
		z: make([][]uint64, len(t.z)),
		r: append([]uint8(nil), t.r...),
	}
	for i := range t.x {
		c.x[i] = append([]uint64(nil), t.x[i]...)
		c.z[i] = append([]uint64(nil), t.z[i]...)
	}
	return c
}

// H applies a Hadamard on qubit q: X↔Z, sign flips on Y.
func (t *Tableau) H(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		xv, zv := t.x[i][w]&m, t.z[i][w]&m
		if xv != 0 && zv != 0 {
			t.r[i] ^= 1
		}
		t.x[i][w] ^= xv ^ zv
		t.z[i][w] ^= zv ^ xv
	}
}

// S applies the phase gate on q: X→Y, Y→−X, Z→Z.
func (t *Tableau) S(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		xv, zv := t.x[i][w]&m, t.z[i][w]&m
		if xv != 0 && zv != 0 {
			t.r[i] ^= 1
		}
		t.z[i][w] ^= xv
	}
}

// Sdg applies the inverse phase gate on q: X→−Y, Y→X, Z→Z.
func (t *Tableau) Sdg(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		xv, zv := t.x[i][w]&m, t.z[i][w]&m
		if xv != 0 && zv == 0 {
			t.r[i] ^= 1
		}
		t.z[i][w] ^= xv
	}
}

// X applies Pauli-X on q (sign flips on rows anticommuting with X_q).
func (t *Tableau) X(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		if t.z[i][w]&m != 0 {
			t.r[i] ^= 1
		}
	}
}

// Z applies Pauli-Z on q.
func (t *Tableau) Z(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		if t.x[i][w]&m != 0 {
			t.r[i] ^= 1
		}
	}
}

// Y applies Pauli-Y on q.
func (t *Tableau) Y(q int) {
	w, m := q>>6, uint64(1)<<(q&63)
	for i := 0; i < 2*t.n; i++ {
		if (t.x[i][w]&m != 0) != (t.z[i][w]&m != 0) {
			t.r[i] ^= 1
		}
	}
}

// CNOT applies a controlled-NOT with control a, target b.
func (t *Tableau) CNOT(a, b int) {
	wa, ma := a>>6, uint64(1)<<(a&63)
	wb, mb := b>>6, uint64(1)<<(b&63)
	for i := 0; i < 2*t.n; i++ {
		xa, za := t.x[i][wa]&ma != 0, t.z[i][wa]&ma != 0
		xb, zb := t.x[i][wb]&mb != 0, t.z[i][wb]&mb != 0
		if xa && zb && (xb == za) {
			t.r[i] ^= 1
		}
		if xa {
			t.x[i][wb] ^= mb
		}
		if zb {
			t.z[i][wa] ^= ma
		}
	}
}

// CZ applies a controlled-Z on a, b (H on b conjugating a CNOT).
func (t *Tableau) CZ(a, b int) {
	t.H(b)
	t.CNOT(a, b)
	t.H(b)
}

// Swap exchanges qubits a and b.
func (t *Tableau) Swap(a, b int) {
	t.CNOT(a, b)
	t.CNOT(b, a)
	t.CNOT(a, b)
}

// rowsum multiplies row i into row h (h ← i·h), tracking the sign via the
// power-of-i bookkeeping of the CHP paper's rowsum(). The per-qubit phase
// exponent g is accumulated with word-parallel popcounts: for each
// left-factor Pauli class (X, Y, Z), the right-factor patterns that
// contribute +i and −i are disjoint bit masks.
func (t *Tableau) rowsum(h, i int) {
	sum := 2*int(t.r[h]) + 2*int(t.r[i])
	for w := 0; w < t.w; w++ {
		x1, z1 := t.x[i][w], t.z[i][w]
		x2, z2 := t.x[h][w], t.z[h][w]
		y1 := x1 & z1  // left factor Y: g = z2 − x2
		xo := x1 &^ z1 // left factor X: g = z2·(2x2−1)
		zo := z1 &^ x1 // left factor Z: g = x2·(1−2z2)
		plus := (y1 & (z2 &^ x2)) | (xo & (x2 & z2)) | (zo & (x2 &^ z2))
		minus := (y1 & (x2 &^ z2)) | (xo & (z2 &^ x2)) | (zo & (x2 & z2))
		sum += bits.OnesCount64(plus) - bits.OnesCount64(minus)
		t.x[h][w] ^= x1
		t.z[h][w] ^= z1
	}
	if (sum%4+4)%4 == 0 {
		t.r[h] = 0
	} else {
		t.r[h] = 1
	}
}

func (t *Tableau) zeroRow(i int) {
	for w := 0; w < t.w; w++ {
		t.x[i][w] = 0
		t.z[i][w] = 0
	}
	t.r[i] = 0
}

func (t *Tableau) copyRow(dst, src int) {
	copy(t.x[dst], t.x[src])
	copy(t.z[dst], t.z[src])
	t.r[dst] = t.r[src]
}

// measure performs a Z-basis measurement of qubit q. When the outcome is
// random, forced (0 or 1) selects the collapse branch; forced is ignored
// for deterministic outcomes. It returns the outcome bit and whether it
// was random.
func (t *Tableau) measure(q, forced int) (int, bool) {
	w, m := q>>6, uint64(1)<<(q&63)
	p := -1
	for i := t.n; i < 2*t.n; i++ {
		if t.x[i][w]&m != 0 {
			p = i
			break
		}
	}
	if p >= 0 {
		// Some stabilizer anticommutes with Z_q: the outcome is random.
		for i := 0; i < 2*t.n; i++ {
			if i != p && t.x[i][w]&m != 0 {
				t.rowsum(i, p)
			}
		}
		t.copyRow(p-t.n, p)
		t.zeroRow(p)
		t.z[p][w] |= m
		t.r[p] = uint8(forced & 1)
		return forced & 1, true
	}
	// Deterministic: accumulate into the scratch row the product of the
	// stabilizers whose destabilizer partners anticommute with Z_q.
	t.zeroRow(2 * t.n)
	for i := 0; i < t.n; i++ {
		if t.x[i][w]&m != 0 {
			t.rowsum(2*t.n, i+t.n)
		}
	}
	return int(t.r[2*t.n]), false
}

// Measure performs a Z-basis measurement of qubit q, drawing the branch
// of a random outcome from rng. It returns the outcome bit and whether
// the outcome was random (false ⇒ the state already pinned it).
func (t *Tableau) Measure(q int, rng *rand.Rand) (int, bool) {
	if q < 0 || q >= t.n {
		panic(fmt.Sprintf("stabilizer: measure qubit %d out of range [0,%d)", q, t.n))
	}
	return t.measure(q, rng.Intn(2))
}

// IsClifford reports whether every gate of c runs on the tableau: a
// Clifford gate, a measurement or a barrier.
func IsClifford(c *circuit.Circuit) bool {
	for _, g := range c.Gates {
		switch g.Kind {
		case circuit.GateX, circuit.GateY, circuit.GateZ, circuit.GateH,
			circuit.GateS, circuit.GateSdg, circuit.GateCNOT, circuit.GateCZ,
			circuit.GateSwap, circuit.GateMeasure, circuit.GateBarrier:
		default:
			return false
		}
	}
	return true
}

// Apply applies one unitary IR gate to the tableau. Barriers are no-ops.
// Measurements are rejected: they are non-unitary, and callers that want
// them must choose a collapse policy explicitly via Measure (Run skips
// them to mirror internal/statevec's final-amplitude contract).
func (t *Tableau) Apply(g circuit.Gate) error {
	if err := g.Validate(t.n); err != nil {
		return err
	}
	switch g.Kind {
	case circuit.GateBarrier:
		return nil
	case circuit.GateX:
		t.X(g.Qubit(0))
	case circuit.GateY:
		t.Y(g.Qubit(0))
	case circuit.GateZ:
		t.Z(g.Qubit(0))
	case circuit.GateH:
		t.H(g.Qubit(0))
	case circuit.GateS:
		t.S(g.Qubit(0))
	case circuit.GateSdg:
		t.Sdg(g.Qubit(0))
	case circuit.GateCNOT:
		t.CNOT(g.Qubit(0), g.Qubit(1))
	case circuit.GateCZ:
		t.CZ(g.Qubit(0), g.Qubit(1))
	case circuit.GateSwap:
		t.Swap(g.Qubit(0), g.Qubit(1))
	default:
		return fmt.Errorf("stabilizer: non-Clifford gate %s", g.Kind)
	}
	return nil
}

// Run evolves |0...0⟩ under circuit c on the tableau, skipping barriers
// and measurements exactly as statevec.Run does (measurement statistics
// are read from the final state via Distribution), and returns the final
// tableau. Circuits containing non-Clifford gates are rejected.
func Run(c *circuit.Circuit) (*Tableau, error) {
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("stabilizer: %w", err)
	}
	t, err := New(c.NumQubits)
	if err != nil {
		return nil, err
	}
	for i, g := range c.Gates {
		if g.Kind == circuit.GateMeasure {
			continue
		}
		if err := t.Apply(g); err != nil {
			return nil, fmt.Errorf("stabilizer: gate %d: %w", i, err)
		}
	}
	return t, nil
}

// Distribution enumerates the computational-basis measurement
// distribution of the state: a map from basis index to probability. A
// stabilizer state is uniform over an affine subspace of {0,1}^n, so the
// support holds 2^k points (k = number of random single-qubit
// measurements); enumeration branches a cloned tableau on each random
// outcome and errors out if the support would exceed maxSupport
// (maxSupport <= 0 means no bound short of 2^n).
func (t *Tableau) Distribution(maxSupport int) (map[uint64]float64, error) {
	if t.n > MaxDistributionQubits {
		return nil, fmt.Errorf("stabilizer: distribution over %d qubits exceeds the %d-qubit index bound",
			t.n, MaxDistributionQubits)
	}
	type branch struct {
		tab  *Tableau
		q    int
		idx  uint64
		prob float64
	}
	stack := []branch{{tab: t.Clone(), prob: 1}}
	probs := make(map[uint64]float64)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		tab, idx, prob := b.tab, b.idx, b.prob
		for q := b.q; q < t.n; q++ {
			// Probe on a clone: if the outcome is random, both branches
			// are live with half the probability each.
			probe := tab.Clone()
			if _, random := probe.measure(q, 0); random {
				if maxSupport > 0 && len(probs)+len(stack)+2 > maxSupport {
					return nil, fmt.Errorf("stabilizer: distribution support exceeds %d states", maxSupport)
				}
				one := tab.Clone()
				one.measure(q, 1)
				stack = append(stack, branch{tab: one, q: q + 1, idx: idx | 1<<uint(q), prob: prob / 2})
				tab = probe // outcome 0 already collapsed
				prob /= 2
				continue
			}
			out, _ := tab.measure(q, 0)
			idx |= uint64(out) << uint(q)
		}
		probs[idx] += prob
	}
	return probs, nil
}
