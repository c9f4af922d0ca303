package apps

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/stabilizer"
)

func TestSurfaceLayoutCounts(t *testing.T) {
	for _, d := range []int{3, 5, 7, 9} {
		ps, err := SurfaceLayout(d)
		if err != nil {
			t.Fatalf("d=%d: %v", d, err)
		}
		if len(ps) != d*d-1 {
			t.Errorf("d=%d: %d plaquettes, want %d", d, len(ps), d*d-1)
		}
		xCount, weight := 0, 0
		seen := map[int]bool{}
		for _, p := range ps {
			if p.XType {
				xCount++
			}
			weight += len(p.Data)
			if len(p.Data) != 2 && len(p.Data) != 4 {
				t.Errorf("d=%d: plaquette %d has weight %d", d, p.Ancilla, len(p.Data))
			}
			if p.Ancilla < d*d || p.Ancilla >= 2*d*d-1 {
				t.Errorf("d=%d: ancilla index %d outside [%d,%d)", d, p.Ancilla, d*d, 2*d*d-1)
			}
			if seen[p.Ancilla] {
				t.Errorf("d=%d: ancilla %d assigned twice", d, p.Ancilla)
			}
			seen[p.Ancilla] = true
			for _, q := range p.Data {
				if q < 0 || q >= d*d {
					t.Errorf("d=%d: data index %d outside [0,%d)", d, q, d*d)
				}
			}
		}
		if xCount != (d*d-1)/2 {
			t.Errorf("d=%d: %d X-type plaquettes, want %d", d, xCount, (d*d-1)/2)
		}
		if weight != 4*d*(d-1) {
			t.Errorf("d=%d: total weight %d, want %d", d, weight, 4*d*(d-1))
		}
	}
	for _, d := range []int{0, 1, 2, 4, -3} {
		if _, err := SurfaceLayout(d); err == nil {
			t.Errorf("SurfaceLayout(%d): want error", d)
		}
	}
}

func TestSurfaceCircuitShape(t *testing.T) {
	const d, rounds = 5, 3
	c, err := Surface(d, rounds)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NumQubits != 2*d*d-1 {
		t.Errorf("qubits = %d, want %d", c.NumQubits, 2*d*d-1)
	}
	if got, want := c.CountKind(circuit.GateCNOT), rounds*4*d*(d-1); got != want {
		t.Errorf("CNOTs = %d, want %d", got, want)
	}
	if got, want := c.Measurements(), rounds*(d*d-1)+d*d; got != want {
		t.Errorf("measurements = %d, want %d", got, want)
	}
	if !stabilizer.IsClifford(c) {
		t.Error("surface circuit must be pure Clifford")
	}
	if _, err := Surface(3, 0); err == nil {
		t.Error("Surface(3,0): want error")
	}
	if _, err := Surface(2, 1); err == nil {
		t.Error("Surface(2,1): want error")
	}
}

// TestSurfaceSyndromeDeterminism pins the code's defining property on the
// tableau backend: starting from |0...0⟩ with no injected errors, round
// 0's Z-type syndromes are deterministically 0 (the state is a Z-basis
// product state) and its X-type syndromes are random (they project onto
// the X-stabilizer eigenbasis, fixing eigenvalue m₀). Every later round
// is fully deterministic: with no ancilla reset the ancilla enters round
// r holding the previous outcome, so an X-ancilla reads m_{r-1} ⊕ m₀ —
// the outcomes alternate m₀, 0, m₀, 0, ... — and a Z-ancilla stays 0.
// Any randomness after round 0, or any deviation from the alternation,
// would mean the extraction circuit disturbs the very stabilizers it
// claims to measure.
func TestSurfaceSyndromeDeterminism(t *testing.T) {
	for _, d := range []int{3, 5} {
		rounds := 4
		c, err := Surface(d, rounds)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := SurfaceLayout(d)
		if err != nil {
			t.Fatal(err)
		}
		xType := map[int]bool{}
		for _, p := range ps {
			xType[p.Ancilla] = p.XType
		}
		tab, err := stabilizer.New(c.NumQubits)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(42))
		ancSeen := 0
		perRound := d*d - 1
		m0 := map[int]int{} // round-0 outcome per X-ancilla
		for i, g := range c.Gates {
			if g.Kind != circuit.GateMeasure {
				if err := tab.Apply(g); err != nil {
					t.Fatalf("gate %d (%s): %v", i, g, err)
				}
				continue
			}
			q := g.Qubit(0)
			out, random := tab.Measure(q, rng)
			if q < d*d {
				continue // final data readout: unconstrained
			}
			round := ancSeen / perRound
			ancSeen++
			switch {
			case round == 0 && xType[q]:
				if !random {
					t.Errorf("d=%d round 0: X-ancilla %d deterministic, want random", d, q)
				}
				m0[q] = out
			case round == 0:
				if random || out != 0 {
					t.Errorf("d=%d round 0: Z-ancilla %d = (%d, random=%v), want (0, false)", d, q, out, random)
				}
			default:
				want := 0
				if xType[q] && round%2 == 0 {
					want = m0[q] // no-reset alternation: m₀, 0, m₀, 0, ...
				}
				if random || out != want {
					t.Errorf("d=%d round %d: ancilla %d = (%d, random=%v), want (%d, false)", d, round, q, out, random, want)
				}
			}
		}
		if ancSeen != rounds*perRound {
			t.Fatalf("d=%d: saw %d ancilla measurements, want %d", d, ancSeen, rounds*perRound)
		}
	}
}

func TestSurfaceSizedFamily(t *testing.T) {
	c, err := ByName("Surface@3")
	if err != nil {
		t.Fatalf("ByName(Surface@3): %v", err)
	}
	if c.NumQubits != 17 {
		t.Errorf("Surface@3 qubits = %d, want 17", c.NumQubits)
	}
	if _, err := ByName("surface@5"); err != nil {
		t.Errorf("case-insensitive sized name: %v", err)
	}

	// Surface must be advertised alongside the other sized families.
	found := false
	for _, f := range SizedForms() {
		if f.Base == "Surface" {
			found = true
			if !strings.Contains(f.Constraint, "odd") {
				t.Errorf("constraint %q should mention oddness", f.Constraint)
			}
		}
	}
	if !found {
		t.Error("SizedForms missing Surface")
	}
}

// TestSurfaceBadSizes is the table-driven edge-case net of the sized-name
// validation path: even, zero, negative and oversized distances must be
// rejected by ValidateName (which is what /v1/run and sweep
// validation call) without building anything.
func TestSurfaceBadSizes(t *testing.T) {
	cases := []struct {
		name    string
		size    int
		wantErr string
	}{
		{"even distance", 4, "odd"},
		{"distance one", 1, "odd"},
		{"distance two", 2, "odd"},
		{"zero", 0, "size must be in [1, 1024]"},
		{"negative", -3, "size must be in [1, 1024]"},
		{"over qubit budget", 23, "exceeds"},
		{"way oversized", 4096, "size must be in [1, 1024]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := fmt.Sprintf("Surface@%d", tc.size)
			err := ValidateName(name)
			if err == nil {
				t.Fatalf("ValidateName(%s): want error", name)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("ValidateName(%s) = %q, want substring %q", name, err, tc.wantErr)
			}
			if _, berr := ByName(name); berr == nil {
				t.Errorf("ByName(%s): want error", name)
			}
		})
	}
	// Largest legal distance under the qubit budget.
	if err := ValidateName("Surface@21"); err != nil {
		t.Errorf("ValidateName(Surface@21): %v", err)
	}
}

func TestSurfaceSpec(t *testing.T) {
	d, r, ok := SurfaceSpec("Surface@9")
	if !ok || d != 9 || r != 9 {
		t.Errorf("SurfaceSpec(Surface@9) = (%d,%d,%v), want (9,9,true)", d, r, ok)
	}
	if _, _, ok := SurfaceSpec("surface@3"); !ok {
		t.Error("SurfaceSpec should be case-insensitive")
	}
	for _, bad := range []string{"Surface@4", "Surface@", "Surface", "QFT@9", "Surface@x", "@3", "Surface@05", "Surface@+5"} {
		if _, _, ok := SurfaceSpec(bad); ok {
			t.Errorf("SurfaceSpec(%q) = ok, want not ok", bad)
		}
	}
}
