package apps

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
)

// TestSuiteMatchesTableII builds every suite benchmark and checks it
// against its Table II reference: the exact qubit count (modulo the BV
// ancilla) and the two-qubit gate count within 12%.
func TestSuiteMatchesTableII(t *testing.T) {
	const tolFrac = 0.12
	suite := Suite()
	if len(suite) != 6 {
		t.Fatalf("suite has %d benchmarks, want 6", len(suite))
	}
	for _, spec := range suite {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("building %s: %v", spec.Name, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("validating %s: %v", spec.Name, err)
		}
		st := circuit.ComputeStats(c)
		if st.Qubits != spec.PaperQubits && st.Qubits != spec.PaperQubits+1 {
			t.Errorf("%s: %d qubits, paper has %d", spec.Name, st.Qubits, spec.PaperQubits)
		}
		lo := float64(spec.PaperGate2Q) * (1 - tolFrac)
		hi := float64(spec.PaperGate2Q) * (1 + tolFrac)
		if g := float64(st.Gate2Q); g < lo || g > hi {
			t.Errorf("%s: %d 2Q gates outside [%0.f,%0.f] (paper %d)", spec.Name, st.Gate2Q, lo, hi, spec.PaperGate2Q)
		}
		t.Log(st)
	}
}

func TestSupremacyExactCounts(t *testing.T) {
	c, err := Supremacy(8, 8, 560, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TwoQubitGates(); got != 560 {
		t.Errorf("Supremacy 2Q = %d, want 560", got)
	}
	if c.NumQubits != 64 {
		t.Errorf("Supremacy qubits = %d, want 64", c.NumQubits)
	}
	st := circuit.ComputeStats(c)
	// Nearest-neighbor on the 8x8 grid: index distances 1 (rows) and 8
	// (columns), roughly half each.
	if st.MaxDistance != 8 {
		t.Errorf("Supremacy max index distance = %d, want 8 (grid columns)", st.MaxDistance)
	}
	if st.NNFraction < 0.4 || st.NNFraction > 0.6 {
		t.Errorf("Supremacy NN fraction = %f, want ~0.5", st.NNFraction)
	}
}

func TestSupremacyDeterministic(t *testing.T) {
	a, _ := Supremacy(4, 4, 40, 7)
	b, _ := Supremacy(4, 4, 40, 7)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed produced different lengths")
	}
	for i := range a.Gates {
		if a.Gates[i].Kind != b.Gates[i].Kind {
			t.Fatalf("gate %d differs across identical seeds", i)
		}
	}
	c, _ := Supremacy(4, 4, 40, 8)
	same := true
	for i := range a.Gates {
		if a.Gates[i].Kind != c.Gates[i].Kind {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical circuits (suspicious)")
	}
}

func TestQAOACounts(t *testing.T) {
	c, err := QAOA(64, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TwoQubitGates(); got != 1260 {
		t.Errorf("QAOA 2Q = %d, want 1260", got)
	}
	st := circuit.ComputeStats(c)
	if st.NNFraction != 1.0 {
		t.Errorf("QAOA NN fraction = %f, want 1.0", st.NNFraction)
	}
}

func TestQFTCounts(t *testing.T) {
	c, err := QFT(64)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TwoQubitGates(); got != 4032 {
		t.Errorf("QFT 2Q = %d, want 4032 (=64*63)", got)
	}
	st := circuit.ComputeStats(c)
	if st.Pattern != circuit.PatternAllDistances {
		t.Errorf("QFT pattern = %s, want all-distances", st.Pattern)
	}
	if st.MaxDistance != 63 {
		t.Errorf("QFT max distance = %d, want 63", st.MaxDistance)
	}
}

func TestQFTSmall(t *testing.T) {
	c, err := QFT(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.TwoQubitGates(); got != 6 {
		t.Errorf("QFT(3) 2Q = %d, want 6", got)
	}
	if got := c.CountKind(circuit.GateH); got != 3 {
		t.Errorf("QFT(3) H = %d, want 3", got)
	}
}

func TestAdderCounts(t *testing.T) {
	c, err := Adder(31)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 64 {
		t.Errorf("Adder qubits = %d, want 64", c.NumQubits)
	}
	got := c.TwoQubitGates()
	// 31 MAJ (8 each) + 31 UMA (8 each) + 1 carry CNOT = 497, within 9%
	// of the paper's 545 (see the substitution note in the package
	// comment).
	if got != 497 {
		t.Errorf("Adder 2Q = %d, want 497", got)
	}
	st := circuit.ComputeStats(c)
	if st.MaxDistance > 4 {
		t.Errorf("Adder max distance = %d, want short range (<=4)", st.MaxDistance)
	}
}

func TestBVCounts(t *testing.T) {
	c, err := BV(64)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 65 {
		t.Errorf("BV qubits = %d, want 65 (64 data + ancilla)", c.NumQubits)
	}
	if got := c.TwoQubitGates(); got != 64 {
		t.Errorf("BV 2Q = %d, want 64", got)
	}
}

func TestSquareRootCounts(t *testing.T) {
	c, err := SquareRoot(39)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 78 {
		t.Errorf("SquareRoot qubits = %d, want 78", c.NumQubits)
	}
	got := c.TwoQubitGates()
	if got < 900 || got > 1130 {
		t.Errorf("SquareRoot 2Q = %d, want within ~11%% of 1028", got)
	}
	st := circuit.ComputeStats(c)
	if st.Pattern != circuit.PatternShortAndLong {
		t.Errorf("SquareRoot pattern = %s, want short+long", st.Pattern)
	}
}

func TestGeneratorsValidate(t *testing.T) {
	for _, spec := range Suite() {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
		if got := c.Measurements(); got != c.NumQubits {
			t.Errorf("%s: %d measurements, want %d", spec.Name, got, c.NumQubits)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := Supremacy(1, 3, 10, 0); err == nil {
		t.Error("Supremacy(1x3) should fail")
	}
	if _, err := Supremacy(4, 4, -1, 0); err == nil {
		t.Error("Supremacy negative gates should fail")
	}
	if _, err := QAOA(1, 1, 0); err == nil {
		t.Error("QAOA(1) should fail")
	}
	if _, err := QAOA(4, 0, 0); err == nil {
		t.Error("QAOA p=0 should fail")
	}
	if _, err := QFT(0); err == nil {
		t.Error("QFT(0) should fail")
	}
	if _, err := Adder(0); err == nil {
		t.Error("Adder(0) should fail")
	}
	if _, err := BV(0); err == nil {
		t.Error("BV(0) should fail")
	}
	if _, err := SquareRoot(2); err == nil {
		t.Error("SquareRoot(2) should fail")
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("qft")
	if err != nil {
		t.Fatal(err)
	}
	if c.NumQubits != 64 {
		t.Errorf("ByName(qft) qubits = %d", c.NumQubits)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("ByName(nope) should fail")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != 6 || names[0] != "Supremacy" || names[5] != "BV" {
		t.Errorf("Names = %v", names)
	}
}

func TestSizedBenchmarks(t *testing.T) {
	cases := []struct {
		name   string
		qubits int
	}{
		{"QFT@128", 128},
		{"QAOA@96", 96},
		{"BV@32", 33}, // n data qubits plus ancilla
		{"Adder@64", 64},
		{"SquareRoot@78", 78},
		{"Supremacy@128", 128},
	}
	for _, tc := range cases {
		c, err := ByName(tc.name)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s: invalid circuit: %v", tc.name, err)
		}
		if c.NumQubits != tc.qubits {
			t.Errorf("%s: %d qubits, want %d", tc.name, c.NumQubits, tc.qubits)
		}
	}
	// Out-of-range sizes must be rejected before any circuit is built:
	// sized names arrive from the HTTP service, so an unbounded size
	// would be a resource-exhaustion vector (QFT@n holds ~n²/2 gates).
	// A size is canonical decimal digits, so each instance has one name
	// up to case (and one cache key).
	for _, bad := range []string{"QFT@", "QFT@x", "QFT@0", "QFT@-3", "QFT@100000",
		fmt.Sprintf("QFT@%d", MaxSizedQubits+1),
		"Adder@63", "SquareRoot@7", "Supremacy@20", "Nope@12", "@12",
		"QFT@064", "QFT@+64", "Surface@05", "BV@08", "BV@+8", "BV@0008"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("%s: expected error", bad)
		}
		if err := ValidateName(bad); err == nil {
			t.Errorf("ValidateName(%s): expected error", bad)
		}
	}
	if _, err := ByName(fmt.Sprintf("QFT@%d", MaxSizedQubits)); err != nil {
		t.Errorf("QFT@%d (the cap itself) should build: %v", MaxSizedQubits, err)
	}
	// The paper-sized instance and its sized alias must be identical.
	a, err := ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("QFT@64")
	if err != nil {
		t.Fatal(err)
	}
	if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
		t.Errorf("QFT and QFT@64 differ: %d/%d qubits, %d/%d gates",
			a.NumQubits, b.NumQubits, len(a.Gates), len(b.Gates))
	}
}

// TestGeneratorsPresize checks that every generator presizes its gate
// array to exactly the gates it emits: a short count regrows the array,
// and a long one leaves capacity that a memoized circuit holds for the
// life of the process.
func TestGeneratorsPresize(t *testing.T) {
	names := append(Names(), "QFT@7", "QAOA@9", "BV@5", "Adder@10", "SquareRoot@14",
		"SquareRoot@12", "Supremacy@24", "Supremacy@16", "Surface@3", "Surface@5")
	for _, name := range names {
		c, err := ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cap(c.Gates) != len(c.Gates) {
			t.Errorf("%s: %d gates in an array of %d", name, len(c.Gates), cap(c.Gates))
		}
	}
	for _, tc := range []struct {
		rows, cols, gates int
	}{{2, 2, 0}, {2, 3, 7}, {3, 2, 5}, {3, 5, 41}, {8, 8, 560}} {
		c, err := Supremacy(tc.rows, tc.cols, tc.gates, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cap(c.Gates) != len(c.Gates) {
			t.Errorf("Supremacy(%d, %d, %d): %d gates in an array of %d",
				tc.rows, tc.cols, tc.gates, len(c.Gates), cap(c.Gates))
		}
	}
}

// TestByNameAllocs bounds the heap objects one build takes, so a heap
// object per gate cannot come back unnoticed: QFT@128 is 40,896 gates.
func TestByNameAllocs(t *testing.T) {
	const limit = 16
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ByName("QFT@128"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > limit {
		t.Errorf("ByName(QFT@128) takes %.0f allocations, want at most %d", allocs, limit)
	}
}
