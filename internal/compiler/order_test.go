package compiler

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/models"
)

// randomCircuit builds ng random gates on nq qubits: single-qubit gates,
// CNOTs, measurements and barriers over random qubit subsets.
func randomCircuit(rng *rand.Rand, nq, ng int) *circuit.Circuit {
	c := circuit.New("random", nq)
	for i := 0; i < ng; i++ {
		switch rng.Intn(4) {
		case 0:
			c.Append(circuit.NewGate1(circuit.GateH, rng.Intn(nq)))
		case 1:
			a := rng.Intn(nq)
			b := rng.Intn(nq - 1)
			if b >= a {
				b++
			}
			c.Append(circuit.NewGate2(circuit.GateCNOT, a, b))
		case 2:
			qs := rng.Perm(nq)[:1+rng.Intn(nq)]
			c.Append(circuit.Gate{Kind: circuit.GateBarrier, Qubits: qs})
		default:
			c.Append(circuit.Measure(rng.Intn(nq)))
		}
	}
	return c
}

// TestBaselineOrderIsEarliestReady pins the program-order schedule of
// the baseline gate order (which the congestion bundle shares) to the
// earliest-ready order it replaces: on random circuits, barriers
// included, it must yield exactly the dependency DAG's lowest-index-first
// topological order, then stop.
func TestBaselineOrderIsEarliestReady(t *testing.T) {
	var orders []GateOrderPolicy
	for _, name := range []string{"baseline", "congestion"} {
		b, err := Lookup(models.PolicyName(name))
		if err != nil {
			t.Fatal(err)
		}
		orders = append(orders, b.NewOrder())
	}
	f := func(seed int64, nqRaw, ngRaw uint8) bool {
		nq := int(nqRaw%16) + 2
		ng := int(ngRaw % 200)
		c := randomCircuit(rand.New(rand.NewSource(seed)), nq, ng)
		want, ok := circuit.BuildDAG(c).TopoOrder()
		if !ok {
			return false
		}
		for _, order := range orders {
			sched := order.NewSchedule(c, nil)
			for _, gi := range want {
				if got := sched.Next(); got != gi {
					t.Logf("seed %d: schedule yielded %d, earliest-ready order has %d", seed, got, gi)
					return false
				}
			}
			if got := sched.Next(); got != -1 {
				t.Logf("seed %d: schedule yielded %d after the last gate", seed, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
