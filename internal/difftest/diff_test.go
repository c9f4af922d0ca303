package difftest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/stabilizer"
	"repro/internal/statevec"
)

// distTolerance bounds the total-variation distance between the two
// simulators' distributions. The tableau's are exact dyadic rationals;
// the state vector accumulates float error over ≤ 64 gates, comfortably
// below 1e-9.
const distTolerance = 1e-9

// diffSeeds is the harness size: every seed is one random Clifford
// circuit run on both simulators. The acceptance bar is ≥ 500.
const diffSeeds = 600

// denseEpsilon drops amplitude-square dust from the state vector's
// distribution, so its support is comparable to the tableau's exact one.
const denseEpsilon = 1e-12

// dist is a computational-basis measurement distribution: basis index
// (qubit 0 = least-significant bit) to probability. Zero-probability
// states are absent.
type dist map[uint64]float64

// totalVariation returns ½·Σ|p−q| over the union of the supports.
func totalVariation(p, q dist) float64 {
	sum := 0.0
	for idx, pv := range p {
		sum += math.Abs(pv - q[idx])
	}
	for idx, qv := range q {
		if _, ok := p[idx]; !ok {
			sum += qv
		}
	}
	return sum / 2
}

// bothBackends runs c on the dense state vector and on the tableau and
// returns each one's final measurement distribution.
func bothBackends(t *testing.T, c *circuit.Circuit) (dense, stab dist) {
	t.Helper()
	s, err := statevec.Run(c)
	if err != nil {
		t.Fatalf("%s: dense run: %v", c.Name, err)
	}
	dense = dist{}
	for i := 0; i < 1<<c.NumQubits; i++ {
		if p := s.Probability(i); p > denseEpsilon {
			dense[uint64(i)] = p
		}
	}
	tab, err := stabilizer.Run(c)
	if err != nil {
		t.Fatalf("%s: stabilizer run: %v", c.Name, err)
	}
	if stab, err = tab.Distribution(0); err != nil {
		t.Fatalf("%s: stabilizer distribution: %v", c.Name, err)
	}
	return dense, stab
}

// TestBackendsAgreeOnRandomCliffords is the headline differential proof:
// diffSeeds seeded random Clifford circuits (up to 12 qubits) must
// produce identical measurement distributions on the dense and tableau
// simulators.
func TestBackendsAgreeOnRandomCliffords(t *testing.T) {
	opts := DefaultGenOptions()
	for seed := int64(0); seed < diffSeeds; seed++ {
		c := RandomClifford(seed, opts)
		if !stabilizer.IsClifford(c) {
			t.Fatalf("seed %d: generated a non-Clifford circuit", seed)
		}
		dense, stab := bothBackends(t, c)
		if tv := totalVariation(dense, stab); tv > distTolerance {
			t.Errorf("seed %d (%d qubits, %d gates): backends diverge, TV = %g\ndense: %v\nstab:  %v",
				seed, c.NumQubits, len(c.Gates), tv, dense, stab)
		}
	}
}

// TestBackendsAgreeOnWorkloads runs two Clifford benchmark workloads,
// wider than any random circuit, on both simulators: BV@16 and
// Surface@3, 17 qubits each.
func TestBackendsAgreeOnWorkloads(t *testing.T) {
	for _, name := range []string{"BV@16", "Surface@3"} {
		c, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !stabilizer.IsClifford(c) {
			t.Fatalf("%s: not a Clifford circuit", name)
		}
		dense, stab := bothBackends(t, c)
		if tv := totalVariation(dense, stab); tv > distTolerance {
			t.Errorf("%s (%d qubits, %d gates): backends diverge, TV = %g",
				name, c.NumQubits, len(c.Gates), tv)
		}
	}
}

// TestMetamorphicInverseIdentity: appending a circuit's inverse must send
// |0...0⟩ back to |0...0⟩ exactly, on both backends.
func TestMetamorphicInverseIdentity(t *testing.T) {
	opts := DefaultGenOptions()
	for seed := int64(0); seed < 100; seed++ {
		c := inverse(RandomClifford(seed, opts))
		dense, stab := bothBackends(t, c)
		for name, d := range map[string]dist{"dense": dense, "stabilizer": stab} {
			if p := d[0]; p < 1-distTolerance {
				t.Errorf("seed %d (%s): P(|0...0⟩) = %v after inverse-append, want 1", seed, name, p)
			}
		}
	}
}

// TestMetamorphicCommutation: transposing adjacent gates on disjoint
// qubits cannot change the computed distribution on either backend.
func TestMetamorphicCommutation(t *testing.T) {
	opts := DefaultGenOptions()
	rewritten := 0
	for seed := int64(0); seed < 200; seed++ {
		c := RandomClifford(seed, opts)
		rw, ok := commuteDisjoint(c, seed+1)
		if !ok {
			continue
		}
		rewritten++
		_, origStab := bothBackends(t, c)
		rwDense, rwStab := bothBackends(t, rw)
		if tv := totalVariation(origStab, rwStab); tv > distTolerance {
			t.Errorf("seed %d: commutation rewrite changed stabilizer distribution, TV = %g", seed, tv)
		}
		if tv := totalVariation(rwDense, rwStab); tv > distTolerance {
			t.Errorf("seed %d: rewritten circuit diverges across backends, TV = %g", seed, tv)
		}
	}
	if rewritten < 100 {
		t.Errorf("only %d/200 seeds had commutable pairs; generator shape regressed", rewritten)
	}
}

// TestGeneratorDeterministic: one seed, one circuit — the differential
// results must be reproducible from a failure report's seed alone.
func TestGeneratorDeterministic(t *testing.T) {
	opts := DefaultGenOptions()
	for seed := int64(0); seed < 50; seed++ {
		a, b := RandomClifford(seed, opts), RandomClifford(seed, opts)
		if a.NumQubits != b.NumQubits || len(a.Gates) != len(b.Gates) {
			t.Fatalf("seed %d: shapes differ: %d/%d qubits, %d/%d gates",
				seed, a.NumQubits, b.NumQubits, len(a.Gates), len(b.Gates))
		}
		for i := range a.Gates {
			if a.Gates[i].String() != b.Gates[i].String() {
				t.Fatalf("seed %d gate %d: %s vs %s", seed, i, a.Gates[i], b.Gates[i])
			}
		}
	}
	if RandomClifford(1, opts).NumQubits == 0 {
		t.Fatal("degenerate circuit")
	}
}

// TestGeneratorValidAndCovering: every generated circuit validates, and
// across the harness's seed range every Clifford gate kind appears —
// counters are asserted so a generator regression cannot silently shrink
// what the differential test exercises.
func TestGeneratorValidAndCovering(t *testing.T) {
	opts := DefaultGenOptions()
	counts := map[circuit.Kind]int{}
	for seed := int64(0); seed < diffSeeds; seed++ {
		c := RandomClifford(seed, opts)
		if err := c.Validate(); err != nil {
			t.Fatalf("seed %d: invalid circuit: %v", seed, err)
		}
		if c.NumQubits < opts.MinQubits || c.NumQubits > opts.MaxQubits {
			t.Fatalf("seed %d: %d qubits outside [%d,%d]", seed, c.NumQubits, opts.MinQubits, opts.MaxQubits)
		}
		if len(c.Gates) < 1 || len(c.Gates) > opts.MaxGates {
			t.Fatalf("seed %d: %d gates outside [1,%d]", seed, len(c.Gates), opts.MaxGates)
		}
		for _, g := range c.Gates {
			counts[g.Kind]++
		}
	}
	for _, k := range CliffordKinds {
		if counts[k] == 0 {
			t.Errorf("gate kind %s never generated across %d seeds", k, diffSeeds)
		}
	}
	t.Logf("kind counts over %d seeds: %v", diffSeeds, counts)
}

// TestGeneratedCircuitsCompile pushes a sample of generated circuits
// through the real backend compiler and validates the emitted ISA
// programs, tying the harness to the toolflow the service actually runs.
func TestGeneratedCircuitsCompile(t *testing.T) {
	dev, err := device.Parse("L6", 20)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultGenOptions()
	for seed := int64(0); seed < 25; seed++ {
		c := RandomClifford(seed, opts)
		prog, err := compiler.Compile(c, dev, compiler.DefaultOptions())
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("seed %d: ISA program invalid: %v", seed, err)
		}
	}
}

// inverse returns a new circuit that appends c's inverse to c, so the
// whole program computes the identity (up to global phase). Barriers and
// measurements — no-ops under both simulators' Run contract — are dropped
// from the appended inverse; every Clifford gate here is self-inverse
// except S/S†, which swap.
func inverse(c *circuit.Circuit) *circuit.Circuit {
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

// commuteDisjoint returns a copy of c with one pseudo-randomly chosen
// pair of adjacent gates on disjoint qubit sets transposed — a rewrite
// that provably preserves the computed unitary. ok reports whether any
// such pair exists.
func commuteDisjoint(c *circuit.Circuit, seed int64) (out *circuit.Circuit, ok bool) {
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
