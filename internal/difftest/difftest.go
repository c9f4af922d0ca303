// Package difftest checks the repository's two state simulators, both
// test oracles, against each other: internal/statevec (dense state
// vector) and internal/stabilizer (CHP tableau), which share no code. Its
// seeded random-Clifford-circuit generator feeds the package's tests,
// which run each circuit on both simulators and require the same
// measurement distribution, and check metamorphic rewrites
// (disjoint-gate commutation, inverse-append ⇒ identity) that hold for
// any correct simulator. The tests also run the BV and surface-code
// workloads on both.
//
// The generator lives in the package proper (not a _test file) so tests
// elsewhere can reuse it: internal/compiler pins the programs compiled
// from its circuits. It has no test-only dependencies.
package difftest

import (
	"math/rand"

	"repro/internal/circuit"
)

// CliffordKinds is every IR gate kind the stabilizer tableau accepts,
// exported so coverage tests can assert the generator never silently
// drops a kind.
var CliffordKinds = []circuit.Kind{
	circuit.GateX, circuit.GateY, circuit.GateZ, circuit.GateH,
	circuit.GateS, circuit.GateSdg,
	circuit.GateCNOT, circuit.GateCZ, circuit.GateSwap,
	circuit.GateMeasure, circuit.GateBarrier,
}

// GenOptions shapes RandomClifford's output.
type GenOptions struct {
	// MinQubits and MaxQubits bound the register width (inclusive).
	MinQubits, MaxQubits int
	// MaxGates bounds the circuit length; the actual length is uniform in
	// [1, MaxGates].
	MaxGates int
}

// DefaultGenOptions matches the differential harness's acceptance bar:
// up to 12 qubits, circuits long enough to mix all gate kinds.
func DefaultGenOptions() GenOptions {
	return GenOptions{MinQubits: 1, MaxQubits: 12, MaxGates: 64}
}

// RandomClifford generates a pseudo-random pure-Clifford circuit from
// seed. Identical seeds (and options) produce identical circuits. Every
// kind in CliffordKinds can appear; two-qubit kinds are skipped on
// single-qubit registers.
func RandomClifford(seed int64, opts GenOptions) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	span := opts.MaxQubits - opts.MinQubits + 1
	n := opts.MinQubits + rng.Intn(span)
	c := circuit.New("clifford", n)
	gates := 1 + rng.Intn(opts.MaxGates)
	for len(c.Gates) < gates {
		kind := CliffordKinds[rng.Intn(len(CliffordKinds))]
		switch kind.Arity() {
		case 1:
			c.Append(circuit.NewGate1(kind, rng.Intn(n)))
		case 2:
			if n < 2 {
				continue
			}
			a := rng.Intn(n)
			b := rng.Intn(n - 1)
			if b >= a {
				b++
			}
			c.Append(circuit.NewGate2(kind, a, b))
		default: // barrier: a random non-empty distinct qubit subset
			k := 1 + rng.Intn(n)
			c.AppendBarrier(rng.Perm(n)[:k]...)
		}
	}
	return c
}
