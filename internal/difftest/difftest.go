// Package difftest is the correctness argument for the stabilizer fast
// path: a seeded random-Clifford-circuit generator whose output runs
// through both simulation backends (dense state vector and CHP tableau),
// asserting identical measurement distributions, plus metamorphic
// rewrites (disjoint-gate commutation, inverse-append ⇒ identity) that
// hold for any correct simulator regardless of backend.
//
// The generator lives in the package proper (not a _test file) so fuzz
// targets and benchmarks elsewhere can reuse it; it has no test-only
// dependencies.
package difftest

import (
	"math/rand"

	"repro/internal/circuit"
)

// CliffordKinds is every IR gate kind the stabilizer backend accepts,
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

// Inverse returns a new circuit that appends c's inverse to c, so the
// whole program computes the identity (up to global phase). Barriers and
// measurements — no-ops under both backends' Run contract — are dropped
// from the appended inverse; every Clifford gate here is self-inverse
// except S/S†, which swap.
func Inverse(c *circuit.Circuit) *circuit.Circuit {
	out := c.Clone()
	out.Name = c.Name + "+inv"
	for i := len(c.Gates) - 1; i >= 0; i-- {
		g := c.Gates[i]
		switch g.Kind {
		case circuit.GateMeasure, circuit.GateBarrier:
			continue
		case circuit.GateS:
			g.Kind = circuit.GateSdg
		case circuit.GateSdg:
			g.Kind = circuit.GateS
		}
		out.Append(g)
	}
	return out
}

// CommuteDisjoint returns a copy of c with one pseudo-randomly chosen
// pair of adjacent gates on disjoint qubit sets transposed — a rewrite
// that provably preserves the computed unitary. ok reports whether any
// such pair exists.
func CommuteDisjoint(c *circuit.Circuit, seed int64) (out *circuit.Circuit, ok bool) {
	var sites []int
	for i := 0; i+1 < len(c.Gates); i++ {
		if disjoint(c.Qubits(i), c.Qubits(i+1)) {
			sites = append(sites, i)
		}
	}
	if len(sites) == 0 {
		return c, false
	}
	rng := rand.New(rand.NewSource(seed))
	i := sites[rng.Intn(len(sites))]
	out = c.Clone()
	out.Name = c.Name + "+comm"
	out.Gates[i], out.Gates[i+1] = out.Gates[i+1], out.Gates[i]
	return out, true
}

func disjoint(a, b []int32) bool {
	for _, qa := range a {
		for _, qb := range b {
			if qa == qb {
				return false
			}
		}
	}
	return true
}
