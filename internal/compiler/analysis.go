package compiler

import (
	"slices"
	"sync"

	"repro/internal/circuit"
)

// Analysis holds what a compile reads that depends on the circuit alone:
// each qubit's uses in program order, the first-use order the placement
// follows and, for the lookahead order, the dependency DAG. A toolflow
// compiles one circuit onto many devices under every policy, so it
// analyses the circuit once and every compile of it shares the result.
// An Analysis is safe for concurrent use; its circuit must not change
// while the analysis is in use.
type Analysis struct {
	c *circuit.Circuit
	// uses[useOff[q]:useOff[q+1]] are the indices of the gates acting on
	// qubit q, in program order, barriers excepted.
	useOff, uses []int32
	// firstUse is circuit.FirstUseOrder, the placement's order.
	firstUse []int

	dagOnce sync.Once
	dag     dag
}

// dag is the circuit's dependency DAG in the form the lookahead order
// reads: gate i's successors are succs[succOff[i]:succOff[i+1]] and
// indeg[i] counts its predecessors.
type dag struct {
	succOff, succs, indeg []int32
}

// Analyze builds c's analysis. The DAG is left for the first lookahead
// compile to build, so a circuit only the other policies compile never
// pays for it.
func Analyze(c *circuit.Circuit) *Analysis {
	a := &Analysis{c: c, firstUse: c.FirstUseOrder(), useOff: make([]int32, c.NumQubits+1)}
	for gi := range c.Gates {
		if c.Gates[gi].Kind == circuit.GateBarrier {
			continue
		}
		for _, q := range c.Qubits(gi) {
			a.useOff[q+1]++
		}
	}
	for q := range c.NumQubits {
		a.useOff[q+1] += a.useOff[q]
	}
	a.uses = make([]int32, a.useOff[c.NumQubits])
	next := slices.Clone(a.useOff[:c.NumQubits]) // write cursors
	for gi := range c.Gates {
		if c.Gates[gi].Kind == circuit.GateBarrier {
			continue
		}
		for _, q := range c.Qubits(gi) {
			a.uses[next[q]] = int32(gi)
			next[q]++
		}
	}
	return a
}

// usesOf returns the indices of the gates acting on qubit q.
func (a *Analysis) usesOf(q int) []int32 { return a.uses[a.useOff[q]:a.useOff[q+1]] }

// lookaheadDAG returns the circuit's dependency DAG, building it on the
// first call.
func (a *Analysis) lookaheadDAG() *dag {
	a.dagOnce.Do(func() { a.dag = buildDAG(a.c) })
	return &a.dag
}

// buildDAG links each gate to the last earlier gate touching each of its
// operands, barriers included, once per distinct predecessor. It walks
// the gates twice, counting the edges and then filling them in, so the
// edge list is one array and needs no per-gate predecessor lists.
func buildDAG(c *circuit.Circuit) dag {
	n := len(c.Gates)
	d := dag{succOff: make([]int32, n+1), indeg: make([]int32, n)}
	last := make([]int32, c.NumQubits) // the last gate touching each qubit
	mark := make([]int32, n)           // mark[p] == i+1: p is already a predecessor of i
	edges := func(visit func(p, i int32)) {
		for q := range last {
			last[q] = -1
		}
		clear(mark)
		for i := range c.Gates {
			gi := int32(i)
			for _, q := range c.Qubits(i) {
				if p := last[q]; p >= 0 && mark[p] != gi+1 {
					mark[p] = gi + 1
					visit(p, gi)
				}
				last[q] = gi
			}
		}
	}
	edges(func(p, i int32) {
		d.indeg[i]++
		d.succOff[p+1]++
	})
	for i := range n {
		d.succOff[i+1] += d.succOff[i]
	}
	// succOff[p] serves as p's write cursor and ends at succOff[p+1];
	// shifting the array back one place restores the offsets.
	d.succs = make([]int32, d.succOff[n])
	edges(func(p, i int32) {
		d.succs[d.succOff[p]] = i
		d.succOff[p]++
	})
	copy(d.succOff[1:], d.succOff[:n])
	d.succOff[0] = 0
	return d
}
