package isa

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/device"
)

// chainOp builds an op of the given kind on trap t (or -1) and qubits; a
// move, link transit or junction-cross names segment or junction 0.
func chainOp(kind OpKind, t int32, end device.End, qubits ...int32) *Op {
	op := &Op{Kind: kind, Resource: t, End: end, GateIndex: -1}
	switch kind {
	case OpMove, OpLinkTransit, OpJunctionCross:
		op.Resource = 0
	}
	op.SetQubits(qubits...)
	return op
}

// describe renders every trap's chain through the public accessors and
// checks that the qubit index agrees with it.
func describe(t *testing.T, c *Chains, traps, qubits int) string {
	t.Helper()
	var b strings.Builder
	resident := 0
	for tr := 0; tr < traps; tr++ {
		fmt.Fprintf(&b, "T%d[", tr)
		for i := 0; i < c.Len(tr); i++ {
			q := c.At(tr, i)
			if c.Trap(q) != tr || c.Pos(q) != i {
				t.Fatalf("T%d position %d holds q%d, whose index says trap %d position %d",
					tr, i, q, c.Trap(q), c.Pos(q))
			}
			fmt.Fprintf(&b, " %d", q)
			resident++
		}
		b.WriteString(" ]")
	}
	for q := 0; q < qubits; q++ {
		if c.Trap(q) < 0 && c.Pos(q) != -1 {
			t.Fatalf("q%d in transit has position %d", q, c.Pos(q))
		}
		if c.Trap(q) < 0 {
			resident++
		}
	}
	if resident != qubits {
		t.Fatalf("%d qubits accounted for, want %d", resident, qubits)
	}
	return b.String()
}

func TestChainsRingWraparound(t *testing.T) {
	// One trap of capacity 3 holding q0; q1 and q2 start in transit.
	c := NewChains([][]int{{0}}, 3, 3)
	steps := []struct {
		op   *Op
		want string
	}{
		// Merging at the left end wraps the head below slot 0.
		{chainOp(OpMerge, 0, device.Left, 1), "T0[ 1 0 ]"},
		{chainOp(OpMerge, 0, device.Left, 2), "T0[ 2 1 0 ]"},
		// Splitting at the left end wraps the head past the last slot.
		{chainOp(OpSplit, 0, device.Left, 2), "T0[ 1 0 ]"},
		{chainOp(OpSplit, 0, device.Left, 1), "T0[ 0 ]"},
		{chainOp(OpMerge, 0, device.Right, 1), "T0[ 0 1 ]"},
		{chainOp(OpMerge, 0, device.Right, 2), "T0[ 0 1 2 ]"},
		// Merging at the right end of a shifted ring wraps to slot 0.
		{chainOp(OpSplit, 0, device.Left, 0), "T0[ 1 2 ]"},
		{chainOp(OpMove, -1, device.Left, 0), "T0[ 1 2 ]"},
		{chainOp(OpMerge, 0, device.Right, 0), "T0[ 1 2 0 ]"},
		// Swaps across the wrapped slots exchange positions.
		{chainOp(OpSwapGS, 0, device.Left, 1, 0), "T0[ 0 2 1 ]"},
		{chainOp(OpIonSwap, 0, device.Left, 2, 1), "T0[ 0 1 2 ]"},
		{chainOp(OpSplit, 0, device.Right, 2), "T0[ 0 1 ]"},
		{chainOp(OpJunctionCross, -1, device.Left, 2), "T0[ 0 1 ]"},
		{chainOp(OpLinkTransit, -1, device.Left, 2), "T0[ 0 1 ]"},
		{chainOp(OpGate2, 0, device.Left, 0, 1), "T0[ 0 1 ]"},
		{chainOp(OpGate1, 0, device.Left, 1), "T0[ 0 1 ]"},
		{chainOp(OpMeasure, 0, device.Left, 0), "T0[ 0 1 ]"},
	}
	for i, s := range steps {
		if err := c.Apply(s.op); err != nil {
			t.Fatalf("step %d (%s): %v", i, s.op, err)
		}
		if got := describe(t, &c, 1, 3); got != s.want {
			t.Fatalf("step %d (%s): chains %s, want %s", i, s.op, got, s.want)
		}
	}
	if c.Trap(2) != -1 || c.Pos(2) != -1 {
		t.Errorf("q2 should be in transit: trap %d, position %d", c.Trap(2), c.Pos(2))
	}
}

func TestChainsApplyErrors(t *testing.T) {
	// T0 = [0 1 2] is full (capacity 3), T1 is empty, q3 is in transit.
	cases := []struct {
		op   *Op
		want string
	}{
		{chainOp(OpGate1, 0, device.Left, 3), "qubit not in trap"},
		{chainOp(OpMeasure, 1, device.Left, 0), "qubit not in trap"},
		{chainOp(OpGate2, 0, device.Left, 0, 3), "gate operands not co-located"},
		{chainOp(OpSwapGS, 0, device.Left, 3, 2), "swap operands not co-located"},
		{chainOp(OpIonSwap, 1, device.Left, 0, 1), "ion-swap operands not co-located"},
		{chainOp(OpIonSwap, 0, device.Left, 0, 2), "ion-swap operands not adjacent (0,2)"},
		{chainOp(OpSplit, 1, device.Left, 0), "split from empty trap"},
		{chainOp(OpSplit, 0, device.Left, 1), "split qubit q1 not at left end of trap 0"},
		{chainOp(OpSplit, 0, device.Right, 0), "split qubit q0 not at right end of trap 0"},
		{chainOp(OpSplit, 0, device.Left, 3), "split qubit q3 not at left end of trap 0"},
		{chainOp(OpMove, -1, device.Left, 0), "move of qubit q0 that is not in transit"},
		{chainOp(OpLinkTransit, -1, device.Left, 1), "link transit of qubit q1 that is not in transit"},
		{chainOp(OpJunctionCross, -1, device.Left, 2), "junction crossing of qubit q2 not in transit"},
		{chainOp(OpMerge, 1, device.Left, 0), "merge of qubit q0 that is not in transit"},
		{chainOp(OpMerge, 0, device.Right, 3), "merge overflows trap 0 (cap 3)"},
		{chainOp(OpKind(42), 0, device.Left, 0), "unknown op kind op(42)"},
	}
	for _, tc := range cases {
		c := NewChains([][]int{{0, 1, 2}, {}}, 4, 3)
		before := describe(t, &c, 2, 4)
		err := c.Apply(tc.op)
		if err == nil || err.Error() != tc.want {
			t.Errorf("Apply(%s) = %v, want %q", tc.op, err, tc.want)
		}
		if after := describe(t, &c, 2, 4); after != before || c.Trap(3) != -1 {
			t.Errorf("failed Apply(%s) changed the chains: %s -> %s", tc.op, before, after)
		}
	}
}
