package compiler

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/circuit"
	"repro/internal/isa"
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
			c.AppendBarrier(rng.Perm(nq)[:1+rng.Intn(nq)]...)
		default:
			c.Append(circuit.Measure(rng.Intn(nq)))
		}
	}
	return c
}

// TestBaselineOrderIsEarliestReady pins the program-order schedule, which
// the baseline and congestion policies share, to the earliest-ready order
// it replaces: on random circuits, barriers included, it must yield
// exactly the dependency DAG's lowest-index-first topological order, then
// stop, and the gate ops either policy compiles must follow that order.
func TestBaselineOrderIsEarliestReady(t *testing.T) {
	d := linear(3, 8, t)
	f := func(seed int64, nqRaw, ngRaw uint8) bool {
		nq := int(nqRaw%16) + 2
		ng := int(ngRaw % 200)
		c := randomCircuit(rand.New(rand.NewSource(seed)), nq, ng)
		want, ok := circuit.BuildDAG(c).TopoOrder()
		if !ok {
			return false
		}
		sched := &programOrder{n: len(c.Gates)}
		var gates []int32 // want without barriers, which emit no op
		for _, gi := range want {
			if got := sched.Next(); got != gi {
				t.Logf("seed %d: schedule yielded %d, earliest-ready order has %d", seed, got, gi)
				return false
			}
			if c.Gates[gi].Kind != circuit.GateBarrier {
				gates = append(gates, int32(gi))
			}
		}
		if got := sched.Next(); got != -1 {
			t.Logf("seed %d: schedule yielded %d after the last gate", seed, got)
			return false
		}
		for _, pol := range []models.PolicyName{"", models.PolicyCongestion} {
			opts := DefaultOptions()
			opts.Policy = pol
			prog, err := Compile(c, d, opts)
			if err != nil {
				t.Logf("seed %d, policy %s: %v", seed, pol, err)
				return false
			}
			var got []int32
			for i := range prog.Ops {
				if prog.Ops[i].Kind.Category() == isa.CatCompute {
					got = append(got, prog.Ops[i].GateIndex)
				}
			}
			if !reflect.DeepEqual(got, gates) {
				t.Logf("seed %d, policy %s: gate ops in order %v, earliest-ready order is %v", seed, pol, got, gates)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
