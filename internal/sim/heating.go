package sim

// The motional-energy model of §VII.B: every ion chain is a quantized
// oscillator whose energy (in quanta) starts at zero and only grows.
// Splitting a chain divides its energy in proportion to the sub-chain
// sizes and adds k1 quanta to each part; merging sums the two energies and
// adds k1; moving an ion adds k2 quanta per segment moved through. There
// is no re-cooling, which is why communication-heavy executions
// accumulate the motional hot spots the paper analyzes.

import "fmt"

// splitEnergy divides the energy of an n-ion chain with energy e into the
// energies of two sub-chains of nA and nB ions (nA+nB == n), adding k1
// quanta to each part (§VII.B). It panics on impossible sizes, which would
// indicate a simulator bookkeeping bug rather than a user error.
func splitEnergy(e float64, nA, nB int, k1 float64) (eA, eB float64) {
	if nA < 1 || nB < 1 {
		panic(fmt.Sprintf("sim: split into sizes %d,%d", nA, nB))
	}
	n := float64(nA + nB)
	eA = e*float64(nA)/n + k1
	eB = e*float64(nB)/n + k1
	return eA, eB
}

// mergeEnergy combines two chain energies, adding the k1 quanta needed to stop
// the chains and prevent collisions (§VII.B).
func mergeEnergy(e1, e2, k1 float64) float64 { return e1 + e2 + k1 }

// moveEnergy returns the energy of a shuttled chain after moving through
// one segment, which adds k2 quanta.
func moveEnergy(e, k2 float64) float64 { return e + k2 }

// ionSwapEnergy returns the chain energy after one physical ion-swap hop:
// the pair is split out (+k1 to both parts), rotated, and merged back
// (+k1), for a net +3·k1 regardless of chain size (§IV.C).
func ionSwapEnergy(e, k1 float64) float64 {
	// Split: pair and remainder each gain k1 while sharing e; merge adds
	// one more k1 over the recombined sum.
	return e + 3*k1
}
