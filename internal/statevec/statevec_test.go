package statevec

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/compiler"
)

const eps = 1e-9

func run(t *testing.T, c *circuit.Circuit) *State {
	t.Helper()
	s, err := Run(c)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// MarginalProb returns the probability that qubit q measures 1.
func (s *State) MarginalProb(q int) float64 {
	mask := 1 << uint(q)
	p := 0.0
	for i, a := range s.amp {
		if i&mask != 0 {
			p += real(a)*real(a) + imag(a)*imag(a)
		}
	}
	return p
}

// MostLikely returns the basis state with the highest probability and
// that probability.
func (s *State) MostLikely() (int, float64) {
	best, bestP := 0, 0.0
	for i := range s.amp {
		if p := s.Probability(i); p > bestP {
			best, bestP = i, p
		}
	}
	return best, bestP
}

// FidelityWith returns |<s|t>|^2.
func (s *State) FidelityWith(t *State) (float64, error) {
	if s.n != t.n {
		return 0, fmt.Errorf("statevec: width mismatch %d vs %d", s.n, t.n)
	}
	var dot complex128
	for i := range s.amp {
		dot += cmplx.Conj(s.amp[i]) * t.amp[i]
	}
	return real(dot)*real(dot) + imag(dot)*imag(dot), nil
}

// Norm returns the state's squared norm (1 for any unitary evolution).
func (s *State) Norm() float64 {
	p := 0.0
	for _, a := range s.amp {
		p += real(a)*real(a) + imag(a)*imag(a)
	}
	return p
}

func TestBellState(t *testing.T) {
	c := circuit.NewBuilder("bell", 2).H(0).CNOT(0, 1).MustCircuit()
	s := run(t, c)
	if math.Abs(s.Probability(0b00)-0.5) > eps || math.Abs(s.Probability(0b11)-0.5) > eps {
		t.Errorf("bell probabilities: %g %g", s.Probability(0), s.Probability(3))
	}
	if s.Probability(0b01) > eps || s.Probability(0b10) > eps {
		t.Error("bell state has odd-parity amplitude")
	}
}

func TestGHZ(t *testing.T) {
	b := circuit.NewBuilder("ghz", 4).H(0)
	for q := 0; q+1 < 4; q++ {
		b.CNOT(q, q+1)
	}
	s := run(t, b.MustCircuit())
	if math.Abs(s.Probability(0)-0.5) > eps || math.Abs(s.Probability(15)-0.5) > eps {
		t.Errorf("GHZ probabilities: %g %g", s.Probability(0), s.Probability(15))
	}
}

func TestPauliAlgebra(t *testing.T) {
	// X|0> = |1>, Z|+> = |->, HH = I, S^2 = Z, T^2 = S.
	x := run(t, circuit.NewBuilder("x", 1).X(0).MustCircuit())
	if math.Abs(x.Probability(1)-1) > eps {
		t.Error("X|0> != |1>")
	}
	hh := run(t, circuit.NewBuilder("hh", 1).H(0).H(0).MustCircuit())
	if math.Abs(hh.Probability(0)-1) > eps {
		t.Error("HH != I")
	}
	// S^2 |+> = Z|+> = |->; applying H brings |-> to |1>.
	ss := run(t, circuit.NewBuilder("ss", 1).H(0).S(0).S(0).H(0).MustCircuit())
	if math.Abs(ss.Probability(1)-1) > eps {
		t.Error("S^2 != Z")
	}
	tt := run(t, circuit.NewBuilder("tt", 1).H(0).T(0).T(0).Sdg(0).H(0).MustCircuit())
	_ = tt
	if math.Abs(tt.Probability(0)-1) > eps {
		t.Error("T^2 != S")
	}
}

func TestRotationPeriodicity(t *testing.T) {
	// RX(2π) = -I (global phase): probabilities unchanged.
	c := circuit.NewBuilder("rx", 1).RX(0, 2*math.Pi).MustCircuit()
	s := run(t, c)
	if math.Abs(s.Probability(0)-1) > eps {
		t.Error("RX(2pi) changed probabilities")
	}
	// RY(π)|0> = |1>.
	s = run(t, circuit.NewBuilder("ry", 1).RY(0, math.Pi).MustCircuit())
	if math.Abs(s.Probability(1)-1) > eps {
		t.Error("RY(pi)|0> != |1>")
	}
}

func TestMSGateEntangles(t *testing.T) {
	// MS(π/2) on |00> gives (|00> - i|11>)/√2.
	c := circuit.NewBuilder("ms", 2).MS(0, 1, math.Pi/2).MustCircuit()
	s := run(t, c)
	if math.Abs(s.Probability(0)-0.5) > eps || math.Abs(s.Probability(3)-0.5) > eps {
		t.Errorf("MS probabilities: %g %g", s.Probability(0), s.Probability(3))
	}
}

func TestSwapGate(t *testing.T) {
	c := circuit.NewBuilder("swap", 2).X(0).Swap(0, 1).MustCircuit()
	s := run(t, c)
	if math.Abs(s.Probability(0b10)-1) > eps {
		t.Errorf("swap result: most likely %v", s.amp)
	}
}

func TestCNOTLoweringEquivalence(t *testing.T) {
	// The native MS lowering of CNOT must act like CNOT on all four
	// computational basis states (up to global phase): compare
	// probabilities after appending the inverse abstract CNOT.
	for basis := 0; basis < 4; basis++ {
		b := circuit.NewBuilder("prep", 2)
		if basis&1 != 0 {
			b.X(0)
		}
		if basis&2 != 0 {
			b.X(1)
		}
		b.CNOT(0, 1)
		prep := b.MustCircuit()
		lowered, err := compiler.LowerToNative(prep)
		if err != nil {
			t.Fatal(err)
		}
		want := run(t, prep)
		got := run(t, lowered)
		fid, err := want.FidelityWith(got)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(fid-1) > 1e-9 {
			t.Errorf("basis %02b: lowered CNOT fidelity %g", basis, fid)
		}
	}
}

func TestLoweringEquivalenceProperty(t *testing.T) {
	// Property: LowerToNative preserves circuit semantics up to global
	// phase on random circuits that draw every construction it lowers
	// (CNOT, CZ, CPhase, ZZ and SWAP) between H and T layers.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(3) + 2
		b := circuit.NewBuilder("rand", n)
		for i := 0; i < 12; i++ {
			q := rng.Intn(n)
			r := rng.Intn(n - 1)
			if r >= q {
				r++
			}
			switch rng.Intn(7) {
			case 0:
				b.H(q)
			case 1:
				b.T(q)
			case 2:
				b.CNOT(q, r)
			case 3:
				b.CZ(q, r)
			case 4:
				b.CPhase(q, r, rng.Float64()*math.Pi)
			case 5:
				b.Swap(q, r)
			default:
				b.ZZ(q, r, rng.Float64()*math.Pi)
			}
		}
		orig := b.MustCircuit()
		lowered, err := compiler.LowerToNative(orig)
		if err != nil {
			return false
		}
		a, err := Run(orig)
		if err != nil {
			return false
		}
		c, err := Run(lowered)
		if err != nil {
			return false
		}
		fid, err := a.FidelityWith(c)
		return err == nil && math.Abs(fid-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestBVRecoversSecret(t *testing.T) {
	// The BV generator uses the all-ones secret: after the final H layer,
	// the data register must read all ones with certainty.
	c, err := apps.BV(6)
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, c)
	for q := 0; q < 6; q++ {
		if p := s.MarginalProb(q); math.Abs(p-1) > 1e-9 {
			t.Errorf("data qubit %d reads 1 with p=%g, want 1", q, p)
		}
	}
}

func TestAdderAdds(t *testing.T) {
	// Adder(3): a=111 (7), b=101 (5) as loaded by the generator; the sum
	// 12 = 0b1100 appears on the b register + carry-out.
	c, err := apps.Adder(3)
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, c)
	idx, p := s.MostLikely()
	if math.Abs(p-1) > 1e-9 {
		t.Fatalf("adder output not deterministic: p=%g", p)
	}
	// Layout: cin=0; a(i)=1+2i; b(i)=2+2i; cout=7.
	bit := func(q int) int { return (idx >> uint(q)) & 1 }
	sum := bit(2) | bit(4)<<1 | bit(6)<<2 | bit(7)<<3
	if sum != 12 {
		t.Errorf("adder sum = %d, want 12 (7+5)", sum)
	}
	// The a register is restored to 7 by the UMA ladder.
	a := bit(1) | bit(3)<<1 | bit(5)<<2
	if a != 7 {
		t.Errorf("a register = %d, want restored 7", a)
	}
}

func TestGroverAmplifies(t *testing.T) {
	// SquareRoot(3): 3 search qubits, marked state |010> (even-index
	// qubits are X-conjugated). One Grover iteration on 8 states boosts
	// the marked probability to 25/32 ≈ 0.781.
	c, err := apps.SquareRoot(3)
	if err != nil {
		t.Fatal(err)
	}
	s := run(t, c)
	// Search qubits sit at indices s(0)=0, s(1)=1, s(2)=3.
	marked := 0.0
	uniform := 1.0 / 8
	for idx := 0; idx < 1<<6; idx++ {
		b0 := idx & 1
		b1 := (idx >> 1) & 1
		b2 := (idx >> 3) & 1
		if b0 == 0 && b1 == 1 && b2 == 0 {
			marked += s.Probability(idx)
		}
	}
	if marked < 3*uniform {
		t.Errorf("Grover marked probability = %g, want amplified above %g", marked, uniform)
	}
	if math.Abs(marked-25.0/32) > 1e-6 {
		t.Errorf("Grover marked probability = %g, want 25/32", marked)
	}
}

func TestQFTInvertsItself(t *testing.T) {
	// QFT followed by its inverse (reversed gates with negated angles)
	// must return the input state.
	n := 5
	qft, err := apps.QFT(n)
	if err != nil {
		t.Fatal(err)
	}
	// Prepare a nontrivial basis state, apply QFT, then the inverse.
	full := circuit.New("qft-rt", n)
	full.Append(circuit.NewGate1(circuit.GateX, 1), circuit.NewGate1(circuit.GateX, 3))
	for _, g := range qft.Gates {
		if g.Kind == circuit.GateMeasure {
			continue
		}
		full.Append(g)
	}
	// Inverse: reverse order, negate parameters (H and CNOT self-invert).
	for i := len(qft.Gates) - 1; i >= 0; i-- {
		g := qft.Gates[i]
		if g.Kind == circuit.GateMeasure {
			continue
		}
		g.Param = -g.Param
		full.Append(g)
	}
	s := run(t, full)
	want := (1 << 1) | (1 << 3)
	if p := s.Probability(want); math.Abs(p-1) > 1e-6 {
		t.Errorf("QFT round trip probability of input state = %g", p)
	}
}

func TestNormPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4) + 2
		b := circuit.NewBuilder("norm", n)
		for i := 0; i < 25; i++ {
			q := rng.Intn(n)
			r := rng.Intn(n - 1)
			if r >= q {
				r++
			}
			switch rng.Intn(7) {
			case 0:
				b.H(q)
			case 1:
				b.RX(q, rng.Float64()*7)
			case 2:
				b.RZ(q, rng.Float64()*7)
			case 3:
				b.CNOT(q, r)
			case 4:
				b.MS(q, r, rng.Float64()*7)
			case 5:
				b.Y(q)
			default:
				b.CPhase(q, r, rng.Float64()*7)
			}
		}
		s, err := Run(b.MustCircuit())
		return err == nil && math.Abs(s.Norm()-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStateErrors(t *testing.T) {
	if _, err := NewState(0); err == nil {
		t.Error("NewState(0) should fail")
	}
	if _, err := NewState(MaxQubits + 1); err == nil {
		t.Error("oversized state should fail")
	}
	c := circuit.New("bad", 2)
	c.Append(circuit.NewGate1(circuit.GateH, 5))
	if _, err := Run(c); err == nil {
		t.Error("invalid circuit should fail")
	}
	s, _ := NewState(2)
	if err := s.Apply(circuit.NewGate1(circuit.Kind(99), 0)); err == nil {
		t.Error("unknown kind should fail")
	}
	if _, err := s.FidelityWith(&State{n: 3}); err == nil {
		t.Error("width mismatch should fail")
	}
}
