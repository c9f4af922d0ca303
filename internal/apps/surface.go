package apps

// Surface-code syndrome-extraction workloads. The paper's evaluation
// stops at NISQ benchmarks; fault-tolerant architectures (Jones 2025 in
// PAPERS.md) are organized around the rotated surface code, whose
// repeated-round stabilizer measurements are the dominant machine
// workload. Surface@d generates exactly that circuit: d² data qubits,
// d²−1 measure ancillas, r rounds of X/Z plaquette extraction, then a
// final data readout — all Clifford, so the stabilizer tableau
// (internal/stabilizer), a test oracle, checks its syndromes far past
// the dense state vector's limit.

import (
	"fmt"

	"repro/internal/circuit"
)

// SurfacePlaquette is one stabilizer of the rotated surface code: the
// ancilla qubit that measures it, its type (X or Z basis), and the data
// qubits it touches (2 on the boundary, 4 in the bulk).
type SurfacePlaquette struct {
	// Ancilla is the measure-qubit index in the circuit's register.
	Ancilla int
	// XType marks an X-stabilizer (ancilla prepared/read in the X basis).
	XType bool
	// Data lists the data-qubit indices the plaquette checks.
	Data []int
}

// SurfaceLayout returns the plaquettes of the distance-d rotated surface
// code over a register laid out as d² data qubits (row-major, data (r,c)
// at index r·d+c) followed by d²−1 ancillas in plaquette order. d must be
// odd and >= 3.
//
// Plaquettes live on the dual lattice at corners (i,j), i,j ∈ [0,d]; the
// plaquette touches the up-to-four data qubits (i−1,j−1), (i−1,j),
// (i,j−1), (i,j) that fall inside the grid, is X-type iff i+j is even,
// and exists in the rotated layout iff it is in the bulk (1 <= i,j <=
// d−1) or on the two boundary strips of its type (top/bottom for X,
// left/right for Z, alternating). This yields (d−1)² weight-4 bulk
// plaquettes and 2(d−1) weight-2 boundary plaquettes: d²−1 stabilizers,
// half X and half Z, as the code requires.
func SurfaceLayout(d int) ([]SurfacePlaquette, error) {
	if d < 3 || d%2 == 0 {
		return nil, fmt.Errorf("apps: surface code distance %d must be odd and >= 3", d)
	}
	var ps []SurfacePlaquette
	anc := d * d
	for i := 0; i <= d; i++ {
		for j := 0; j <= d; j++ {
			xType := (i+j)%2 == 0
			bulk := 1 <= i && i <= d-1 && 1 <= j && j <= d-1
			topBot := (i == 0 || i == d) && 1 <= j && j <= d-1 && xType
			leftRight := (j == 0 || j == d) && 1 <= i && i <= d-1 && !xType
			if !bulk && !topBot && !leftRight {
				continue
			}
			var data []int
			for _, rc := range [4][2]int{{i - 1, j - 1}, {i - 1, j}, {i, j - 1}, {i, j}} {
				r, c := rc[0], rc[1]
				if 0 <= r && r < d && 0 <= c && c < d {
					data = append(data, r*d+c)
				}
			}
			ps = append(ps, SurfacePlaquette{Ancilla: anc, XType: xType, Data: data})
			anc++
		}
	}
	return ps, nil
}

// Surface builds rounds rounds of syndrome extraction for the distance-d
// rotated surface code: per round, every X-type ancilla is H-conjugated
// around a fan of CNOT(ancilla→data), every Z-type ancilla collects
// CNOT(data→ancilla), and all ancillas are measured (no reset between
// rounds — syndrome changes are read as measurement differences, which
// keeps the circuit unitary-plus-measure). After the last round every
// data qubit is measured. The register holds 2d²−1 qubits; each round
// carries 4d(d−1) CNOTs and d²−1 measurements.
func Surface(d, rounds int) (*circuit.Circuit, error) {
	if rounds < 1 {
		return nil, fmt.Errorf("apps: surface code needs >= 1 round, got %d", rounds)
	}
	ps, err := SurfaceLayout(d)
	if err != nil {
		return nil, err
	}
	n := 2*d*d - 1
	perRound := 0 // each plaquette's CNOTs and measurement, X-type's two H
	for _, p := range ps {
		perRound += len(p.Data) + 1
		if p.XType {
			perRound += 2
		}
	}
	b := circuit.NewBuilder(fmt.Sprintf("Surface%dr%d", d, rounds), n).Grow(rounds*perRound + d*d)
	for round := 0; round < rounds; round++ {
		for _, p := range ps {
			if p.XType {
				b.H(p.Ancilla)
				for _, q := range p.Data {
					b.CNOT(p.Ancilla, q)
				}
				b.H(p.Ancilla)
			} else {
				for _, q := range p.Data {
					b.CNOT(q, p.Ancilla)
				}
			}
			b.MeasureQ(p.Ancilla)
		}
	}
	for q := 0; q < d*d; q++ {
		b.MeasureQ(q)
	}
	return b.Circuit()
}

// surfaceRounds is the round count of a Surface@d instance: d rounds, the
// standard choice that gives time-like error chains the same length as
// space-like ones.
func surfaceRounds(d int) int { return d }

// SurfaceSpec reports the code distance and round count encoded in a
// sized surface app name ("Surface@d", case-insensitive), without
// building the circuit. ok is false for every other name, including
// malformed or out-of-bound sizes. Callers use it to recognize QEC
// workloads post-hoc (e.g. to attach logical-error metrics to results).
func SurfaceSpec(name string) (d, rounds int, ok bool) {
	_, base, n, err := resolve(name)
	if err != nil || base != "Surface" {
		return 0, 0, false
	}
	return n, surfaceRounds(n), true
}

// surfaceFamily declares Surface@d as a sized benchmark: the size
// parameter is the code distance, so Surface@9 is the 161-qubit, 9-round
// distance-9 code. The total-qubit bound 2d²−1 <= MaxSizedQubits admits
// distances up to 21.
func surfaceFamily() sizedFamily {
	return sizedFamily{
		base:       "Surface",
		constraint: "n the code distance: odd, >= 3, with 2n²-1 total qubits <= 1024 (n <= 21)",
		check: func(n int) error {
			if n < 3 || n%2 == 0 {
				return fmt.Errorf("apps: Surface@%d: code distance must be odd and >= 3", n)
			}
			if total := 2*n*n - 1; total > MaxSizedQubits {
				return fmt.Errorf("apps: Surface@%d: %d total qubits exceeds %d", n, total, MaxSizedQubits)
			}
			return nil
		},
		build: func(n int) (*circuit.Circuit, error) { return Surface(n, surfaceRounds(n)) },
	}
}
