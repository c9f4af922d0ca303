package compiler

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
)

func TestLowerCNOT(t *testing.T) {
	c := circuit.NewBuilder("l", 2).CNOT(0, 1).MustCircuit()
	out, err := LowerToNative(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountKind(circuit.GateMS); got != 1 {
		t.Errorf("MS count = %d, want 1", got)
	}
	if got := out.SingleQubitGates(); got != 4 {
		t.Errorf("1Q count = %d, want 4", got)
	}
}

func TestLowerCZAndZZ(t *testing.T) {
	c := circuit.NewBuilder("l", 2).CZ(0, 1).ZZ(0, 1, 0.7).MustCircuit()
	out, err := LowerToNative(c)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.CountKind(circuit.GateMS); got != 2 {
		t.Errorf("MS count = %d, want 2", got)
	}
	if got := out.CountKind(circuit.GateCZ) + out.CountKind(circuit.GateZZ); got != 0 {
		t.Errorf("abstract gates remain: %d", got)
	}
}

func TestLowerCPhaseAndSwap(t *testing.T) {
	c := circuit.NewBuilder("l", 2).CPhase(0, 1, 0.5).Swap(0, 1).MustCircuit()
	out, err := LowerToNative(c)
	if err != nil {
		t.Fatal(err)
	}
	// CP -> 2 MS, SWAP -> 3 MS.
	if got := out.CountKind(circuit.GateMS); got != 5 {
		t.Errorf("MS count = %d, want 5", got)
	}
}

func TestLowerPassesThroughMeasureAndBarrier(t *testing.T) {
	c := circuit.New("l", 2)
	c.Append(circuit.NewGate1(circuit.GateH, 0))
	c.AppendBarrier(1, 0)
	c.Append(circuit.Measure(0))
	out, err := LowerToNative(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Gates) != 3 {
		t.Errorf("pass-through gates = %d, want 3", len(out.Gates))
	}
	if got := out.Qubits(1); out.Gates[1].Kind != circuit.GateBarrier || len(got) != 2 || got[0] != 1 || got[1] != 0 {
		t.Errorf("lowered barrier = %s over %v, want a barrier over [1 0]", out.Gates[1].Kind, got)
	}
}

func TestLowerRejectsInvalid(t *testing.T) {
	c := circuit.New("bad", 1)
	c.Append(circuit.NewGate1(circuit.GateH, 5))
	if _, err := LowerToNative(c); err == nil {
		t.Error("invalid circuit should fail lowering")
	}
}

func TestLowerPreservesSuiteMSCounts(t *testing.T) {
	// The Table II generators emit one MS-class gate per entangler
	// (QFT's controlled phases are already expanded), so lowering must
	// keep every suite 2Q count identical.
	for _, spec := range apps.Suite() {
		c, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		out, err := LowerToNative(c)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		if out.TwoQubitGates() != c.TwoQubitGates() {
			t.Errorf("%s: lowered 2Q = %d, want %d", spec.Name, out.TwoQubitGates(), c.TwoQubitGates())
		}
		if out.CountKind(circuit.GateMS) != out.TwoQubitGates() {
			t.Errorf("%s: non-MS 2Q gates remain after lowering", spec.Name)
		}
		if out.Measurements() != c.Measurements() {
			t.Errorf("%s: measurements changed", spec.Name)
		}
	}
}

func TestLoweredCircuitCompilesAndRuns(t *testing.T) {
	c, err := apps.QAOA(12, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	lowered, err := LowerToNative(c)
	if err != nil {
		t.Fatal(err)
	}
	d := linear(3, 6, t)
	p, err := Compile(lowered, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	replayStructure(t, p, d)
}
