package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitProportionalShares(t *testing.T) {
	eA, eB := splitEnergy(10, 1, 4, 0.1)
	if math.Abs(eA-(10.0/5+0.1)) > 1e-12 {
		t.Errorf("eA = %g", eA)
	}
	if math.Abs(eB-(10.0*4/5+0.1)) > 1e-12 {
		t.Errorf("eB = %g", eB)
	}
}

func TestSplitConservationPlusK1(t *testing.T) {
	// Property: split conserves energy up to the 2·k1 added quanta, and
	// both parts are at least k1.
	f := func(eRaw uint16, nARaw, nBRaw uint8) bool {
		e := float64(eRaw) / 100
		nA := int(nARaw%20) + 1
		nB := int(nBRaw%20) + 1
		const k1 = 0.1
		eA, eB := splitEnergy(e, nA, nB, k1)
		if eA < k1 || eB < k1 {
			return false
		}
		return math.Abs((eA+eB)-(e+2*k1)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSplitPanicsOnBadSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("splitEnergy with zero-size part should panic")
		}
	}()
	splitEnergy(1, 0, 3, 0.1)
}

func TestMergeAddsK1(t *testing.T) {
	if got := mergeEnergy(1.5, 2.5, 0.1); math.Abs(got-4.1) > 1e-12 {
		t.Errorf("mergeEnergy = %g, want 4.1", got)
	}
}

func TestMovePerUnit(t *testing.T) {
	if got := moveEnergy(1, 7, 0.01); math.Abs(got-1.07) > 1e-12 {
		t.Errorf("moveEnergy = %g, want 1.07", got)
	}
	if got := moveEnergy(1, 0, 0.01); got != 1 {
		t.Errorf("zero-unit move changed energy: %g", got)
	}
}

func TestMovePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative move should panic")
		}
	}()
	moveEnergy(1, -1, 0.01)
}

func TestIonSwapHop(t *testing.T) {
	if got := ionSwapEnergy(2, 0.1); math.Abs(got-2.3) > 1e-12 {
		t.Errorf("ionSwapEnergy = %g, want 2.3", got)
	}
}

func TestEnergyMonotoneUnderAnySequence(t *testing.T) {
	// Property: total device energy never decreases under any random
	// sequence of split/merge/move events (no cooling in the model).
	f := func(ops []uint8) bool {
		const k1, k2 = 0.1, 0.01
		// Two chains with sizes and energies.
		e := []float64{0, 0}
		n := []int{5, 5}
		total := 0.0
		for _, op := range ops {
			prev := e[0] + e[1]
			switch op % 3 {
			case 0: // split one ion off chain 0 into chain 1 (if possible)
				if n[0] > 1 {
					ion, rest := splitEnergy(e[0], 1, n[0]-1, k1)
					e[0] = rest
					e[1] = mergeEnergy(e[1], moveEnergy(ion, int(op%4), k2), k1)
					n[0]--
					n[1]++
				}
			case 1: // same, other direction
				if n[1] > 1 {
					ion, rest := splitEnergy(e[1], 1, n[1]-1, k1)
					e[1] = rest
					e[0] = mergeEnergy(e[0], moveEnergy(ion, int(op%4), k2), k1)
					n[1]--
					n[0]++
				}
			default:
				e[0] = ionSwapEnergy(e[0], k1)
			}
			if e[0]+e[1] < prev-1e-9 {
				return false
			}
			total = e[0] + e[1]
		}
		return total >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
