package stabilizer

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
)

func mustNew(t *testing.T, n int) *Tableau {
	t.Helper()
	tab, err := New(n)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return tab
}

func dist(t *testing.T, tab *Tableau) map[uint64]float64 {
	t.Helper()
	d, err := tab.Distribution(0)
	if err != nil {
		t.Fatalf("Distribution: %v", err)
	}
	return d
}

// wantDist asserts the distribution matches exactly the given support with
// the given probabilities (tolerance only for float accumulation).
func wantDist(t *testing.T, got map[uint64]float64, want map[uint64]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("support size %d, want %d (got %v want %v)", len(got), len(want), got, want)
	}
	for idx, p := range want {
		if g, ok := got[idx]; !ok || math.Abs(g-p) > 1e-12 {
			t.Fatalf("P(%b) = %v, want %v (full: %v)", idx, g, p, got)
		}
	}
}

func TestNewBounds(t *testing.T) {
	for _, n := range []int{0, -1, MaxQubits + 1} {
		if _, err := New(n); err == nil {
			t.Errorf("New(%d): want error", n)
		}
	}
	tab := mustNew(t, 70) // multi-word rows
	if tab.NumQubits() != 70 {
		t.Errorf("NumQubits = %d, want 70", tab.NumQubits())
	}
	wantDist(t, dist(t, mustNew(t, 3)), map[uint64]float64{0: 1})
}

func TestPauliGates(t *testing.T) {
	// X flips, Z is invisible in the Z basis, Y flips.
	tab := mustNew(t, 2)
	tab.X(0)
	wantDist(t, dist(t, tab), map[uint64]float64{1: 1})
	tab.Y(1)
	wantDist(t, dist(t, tab), map[uint64]float64{3: 1})
	tab.Z(0)
	wantDist(t, dist(t, tab), map[uint64]float64{3: 1})
	tab.X(0)
	tab.Y(1)
	wantDist(t, dist(t, tab), map[uint64]float64{0: 1})
}

func TestHadamardUniform(t *testing.T) {
	tab := mustNew(t, 2)
	tab.H(0)
	wantDist(t, dist(t, tab), map[uint64]float64{0: 0.5, 1: 0.5})
	tab.H(0) // H² = I
	wantDist(t, dist(t, tab), map[uint64]float64{0: 1})
}

func TestBellAndGHZ(t *testing.T) {
	tab := mustNew(t, 2)
	tab.H(0)
	tab.CNOT(0, 1)
	wantDist(t, dist(t, tab), map[uint64]float64{0: 0.5, 3: 0.5})

	ghz := mustNew(t, 5)
	ghz.H(0)
	for q := 1; q < 5; q++ {
		ghz.CNOT(0, q)
	}
	wantDist(t, dist(t, ghz), map[uint64]float64{0: 0.5, 31: 0.5})
}

func TestPhaseGateIdentities(t *testing.T) {
	// S·S = Z on |+>: H S S H |0> = H Z H |0> = X |0> = |1>.
	tab := mustNew(t, 1)
	tab.H(0)
	tab.S(0)
	tab.S(0)
	tab.H(0)
	wantDist(t, dist(t, tab), map[uint64]float64{1: 1})

	// S·Sdg = I on |+>.
	tab = mustNew(t, 1)
	tab.H(0)
	tab.S(0)
	tab.Sdg(0)
	tab.H(0)
	wantDist(t, dist(t, tab), map[uint64]float64{0: 1})

	// Sdg·Sdg = Z as well.
	tab = mustNew(t, 1)
	tab.H(0)
	tab.Sdg(0)
	tab.Sdg(0)
	tab.H(0)
	wantDist(t, dist(t, tab), map[uint64]float64{1: 1})
}

func TestHSAlgebra(t *testing.T) {
	// (H S)³ = e^{iπ/4}·I up to global phase; states must agree.
	tab := mustNew(t, 1)
	tab.X(0) // start from |1> to exercise signs
	for i := 0; i < 3; i++ {
		tab.H(0)
		tab.S(0)
	}
	// Repeating twice more gives (HS)^6... simpler: verify (HS)^3|1> == |1>
	// by checking the distribution is again a point mass at 1? Actually
	// (HS)^3 = ωI, so the state is |1> up to phase.
	wantDist(t, dist(t, tab), map[uint64]float64{1: 1})
}

func TestCZAndSwap(t *testing.T) {
	// CZ on |11> flips the phase: detect via interference.
	// H(0) H(1) CZ H(1) maps |00> -> CNOT-like correlation: this is the
	// standard CZ = H_t CNOT H_t identity, so H(1) CZ(0,1) H(1) == CNOT(0,1).
	a := mustNew(t, 2)
	a.H(0)
	a.H(1)
	a.CZ(0, 1)
	a.H(1)
	b := mustNew(t, 2)
	b.H(0)
	b.CNOT(0, 1)
	wantDist(t, dist(t, a), dist(t, b))

	// Swap moves a bit.
	s := mustNew(t, 3)
	s.X(0)
	s.Swap(0, 2)
	wantDist(t, dist(t, s), map[uint64]float64{4: 1})
}

func TestMeasureDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	tab := mustNew(t, 3)
	tab.X(1)
	for q, want := range []int{0, 1, 0} {
		out, random := tab.Measure(q, rng)
		if random {
			t.Errorf("qubit %d: outcome random, want deterministic", q)
		}
		if out != want {
			t.Errorf("qubit %d: outcome %d, want %d", q, out, want)
		}
	}
}

func TestMeasureRandomCollapses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	saw := map[int]bool{}
	for trial := 0; trial < 64; trial++ {
		tab := mustNew(t, 2)
		tab.H(0)
		tab.CNOT(0, 1)
		out0, random := tab.Measure(0, rng)
		if !random {
			t.Fatal("Bell measurement should be random")
		}
		saw[out0] = true
		// Second qubit is now pinned to the first outcome.
		out1, random := tab.Measure(1, rng)
		if random {
			t.Fatal("second Bell qubit should be deterministic after collapse")
		}
		if out1 != out0 {
			t.Fatalf("Bell correlation broken: %d vs %d", out0, out1)
		}
		// Remeasuring is stable.
		again, random := tab.Measure(0, rng)
		if random || again != out0 {
			t.Fatalf("remeasure: got (%d,%v), want (%d,false)", again, random, out0)
		}
	}
	if !saw[0] || !saw[1] {
		t.Errorf("64 Bell trials saw outcomes %v; want both 0 and 1", saw)
	}
}

func TestMeasureOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on out-of-range measure")
		}
	}()
	mustNew(t, 2).Measure(5, rand.New(rand.NewSource(1)))
}

func TestCloneIndependent(t *testing.T) {
	tab := mustNew(t, 2)
	tab.H(0)
	c := tab.Clone()
	c.X(1)
	wantDist(t, dist(t, tab), map[uint64]float64{0: 0.5, 1: 0.5})
	wantDist(t, dist(t, c), map[uint64]float64{2: 0.5, 3: 0.5})
}

func TestIsClifford(t *testing.T) {
	b := circuit.New("clif", 2)
	b.Append(
		circuit.NewGate1(circuit.GateH, 0),
		circuit.NewGate1(circuit.GateS, 1),
		circuit.NewGate1(circuit.GateSdg, 1),
		circuit.NewGate1(circuit.GateX, 0),
		circuit.NewGate1(circuit.GateY, 0),
		circuit.NewGate1(circuit.GateZ, 0),
		circuit.NewGate2(circuit.GateCNOT, 0, 1),
		circuit.NewGate2(circuit.GateCZ, 0, 1),
		circuit.NewGate2(circuit.GateSwap, 0, 1),
		circuit.Measure(0),
	)
	b.AppendBarrier(0, 1)
	if !IsClifford(b) {
		t.Error("all-Clifford circuit reported non-Clifford")
	}
	for _, k := range []circuit.Kind{
		circuit.GateT, circuit.GateTdg, circuit.GateRX, circuit.GateRY,
		circuit.GateRZ,
	} {
		c := circuit.New("non", 1)
		c.Append(circuit.NewGate1P(k, 0, 0.3))
		if IsClifford(c) {
			t.Errorf("%s circuit reported Clifford", k)
		}
	}
	for _, k := range []circuit.Kind{circuit.GateMS, circuit.GateCPhase, circuit.GateZZ} {
		c := circuit.New("non2", 2)
		c.Append(circuit.NewGate2P(k, 0, 1, 0.3))
		if IsClifford(c) {
			t.Errorf("%s circuit reported Clifford", k)
		}
	}
}

func TestRun(t *testing.T) {
	c := circuit.New("bell", 2)
	c.Append(
		circuit.NewGate1(circuit.GateH, 0),
		circuit.NewGate2(circuit.GateCNOT, 0, 1),
	)
	c.AppendBarrier(0, 1)
	c.MeasureAll() // skipped, like statevec.Run
	tab, err := Run(c)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wantDist(t, dist(t, tab), map[uint64]float64{0: 0.5, 3: 0.5})
}

func TestRunErrors(t *testing.T) {
	bad := circuit.New("bad", 1)
	bad.Append(circuit.NewGate1(circuit.GateH, 3))
	if _, err := Run(bad); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("invalid circuit: err = %v", err)
	}

	nonClif := circuit.New("t", 1)
	nonClif.Append(circuit.NewGate1(circuit.GateT, 0))
	if _, err := Run(nonClif); err == nil || !strings.Contains(err.Error(), "non-Clifford") {
		t.Errorf("non-Clifford circuit: err = %v", err)
	}

	huge := circuit.New("huge", MaxQubits+1)
	if _, err := Run(huge); err == nil {
		t.Error("oversized circuit: want error")
	}
}

func TestApplyValidates(t *testing.T) {
	tab := mustNew(t, 2)
	if err := tab.Apply(circuit.NewGate2(circuit.GateCNOT, 0, 0)); err == nil {
		t.Error("repeated operand: want error")
	}
	if err := tab.Apply(circuit.Measure(0)); err == nil {
		t.Error("Apply(measure): want error (non-unitary)")
	}
	if err := tab.Apply(circuit.Gate{Kind: circuit.GateBarrier}); err != nil {
		t.Errorf("Apply(barrier): %v", err)
	}
}

func TestDistributionBounds(t *testing.T) {
	tab := mustNew(t, 3)
	tab.H(0)
	tab.H(1)
	tab.H(2)
	if _, err := tab.Distribution(4); err == nil {
		t.Error("support 8 over cap 4: want error")
	}
	d, err := tab.Distribution(8)
	if err != nil {
		t.Fatalf("Distribution(8): %v", err)
	}
	if len(d) != 8 {
		t.Errorf("support %d, want 8", len(d))
	}
	total := 0.0
	for _, p := range d {
		total += p
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("probabilities sum to %v", total)
	}

	wide := mustNew(t, MaxDistributionQubits+1)
	if _, err := wide.Distribution(0); err == nil {
		t.Error("65-qubit distribution: want index-bound error")
	}
}

// TestMultiWordRows exercises the word-parallel rowsum and the per-gate
// bit addressing across the 64-bit word boundary.
func TestMultiWordRows(t *testing.T) {
	const n = 80
	tab := mustNew(t, n)
	tab.H(0)
	tab.CNOT(0, 79) // entangle across words
	tab.X(64)       // first bit of word 1
	rng := rand.New(rand.NewSource(3))
	o0, random := tab.Measure(0, rng)
	if !random {
		t.Fatal("qubit 0 should be random")
	}
	o79, random := tab.Measure(79, rng)
	if random || o79 != o0 {
		t.Fatalf("cross-word Bell pair broken: got (%d,%v), want (%d,false)", o79, random, o0)
	}
	o64, random := tab.Measure(64, rng)
	if random || o64 != 1 {
		t.Fatalf("qubit 64: got (%d,%v), want (1,false)", o64, random)
	}
}

// TestSteaneStyleParity pins a small syndrome-extraction pattern: a
// Z-type parity check of three data qubits into an ancilla must be
// deterministic 0 on |000> and deterministic 1 after one data X error.
func TestSyndromeParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, flip := range []int{-1, 0, 1, 2} {
		tab := mustNew(t, 4) // data 0..2, ancilla 3
		if flip >= 0 {
			tab.X(flip)
		}
		for _, d := range []int{0, 1, 2} {
			tab.CNOT(d, 3)
		}
		want := 0
		if flip >= 0 {
			want = 1
		}
		out, random := tab.Measure(3, rng)
		if random || out != want {
			t.Errorf("flip=%d: syndrome (%d,%v), want (%d,false)", flip, out, random, want)
		}
	}
}

func BenchmarkCNOTChain(b *testing.B) {
	tab, _ := New(200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.H(i % 200)
		tab.CNOT(i%200, (i+7)%200)
	}
}
