package qccd

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

func TestPublicPipeline(t *testing.T) {
	dev, err := NewLinearDevice(6, 20)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := Benchmark("QAOA")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(circ, dev, DefaultCompileOptions(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity <= 0 || res.Fidelity >= 1 {
		t.Errorf("fidelity = %g", res.Fidelity)
	}
	if res.TotalSeconds() <= 0 {
		t.Errorf("time = %g", res.TotalSeconds())
	}
}

func TestPublicBuilderAndQASM(t *testing.T) {
	circ := NewBuilder("bell", 2).H(0).CNOT(0, 1).MeasureAll().MustCircuit()
	src, err := WriteQASM(circ)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseQASM("bell", src)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.TwoQubitGates() != 1 {
		t.Errorf("round trip 2Q = %d", parsed.TwoQubitGates())
	}
	st := ComputeStats(parsed)
	if st.Qubits != 2 {
		t.Errorf("stats qubits = %d", st.Qubits)
	}
}

func TestPublicDevices(t *testing.T) {
	if _, err := NewGridDevice(2, 3, 18); err != nil {
		t.Error(err)
	}
	if _, err := ParseDevice("G2x3", 18); err != nil {
		t.Error(err)
	}
	if _, err := ParseDevice("bogus", 18); err == nil {
		t.Error("bad spec should fail")
	}
}

func TestPublicBenchmarks(t *testing.T) {
	specs := Benchmarks()
	if len(specs) != 6 {
		t.Fatalf("suite size = %d", len(specs))
	}
	if _, err := Benchmark("SquareRoot"); err != nil {
		t.Error(err)
	}
	if _, err := Benchmark("unknown"); err == nil {
		t.Error("unknown benchmark should fail")
	}
}

func TestPublicTables(t *testing.T) {
	if out := Table1(DefaultParams()); !strings.Contains(out, "Y-junction") {
		t.Error("Table1 content")
	}
	out, err := Table2()
	if err != nil || !strings.Contains(out, "QAOA") {
		t.Errorf("Table2: %v", err)
	}
}

func TestPublicExplorer(t *testing.T) {
	ex := NewExplorer(DefaultParams())
	o := ex.Run(DesignPoint{App: "BV", Topology: "L6", Capacity: 18, Gate: FM, Reorder: GS})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Result.Fidelity <= 0 {
		t.Error("explorer result")
	}
}

// TestExplorerSweepCompilesPerGroup sweeps ExampleExplorer_Sweep's
// points: its 12 points are 6 pairs of gate siblings, so the sweep
// compiles 6 programs, and each outcome equals the point run on its own.
func TestExplorerSweepCompilesPerGroup(t *testing.T) {
	var points []DesignPoint
	for _, topology := range []string{"L6", "G2x3"} {
		for _, capacity := range []int{14, 22, 30} {
			for _, gate := range []GateImpl{AM2, FM} {
				points = append(points, DesignPoint{
					App: "SquareRoot", Topology: topology, Capacity: capacity, Gate: gate, Reorder: GS,
				})
			}
		}
	}
	ex := NewExplorer(DefaultParams())
	outcomes := ex.Sweep(points)
	if n := ex.Compiles(); n != 6 {
		t.Errorf("sweeping %d points compiled %d programs, want 6", len(points), n)
	}
	for i, o := range outcomes {
		alone := NewExplorer(DefaultParams()).Run(points[i])
		if o.Err != nil || alone.Err != nil || !reflect.DeepEqual(o.Result, alone.Result) {
			t.Errorf("%s: swept %+v, run alone %+v", points[i], o, alone)
		}
	}
}

// TestGateImplConstants pins the re-exported constants to the model
// values so the public API cannot drift.
func TestGateImplConstants(t *testing.T) {
	if AM1.String() != "AM1" || AM2.String() != "AM2" || PM.String() != "PM" || FM.String() != "FM" {
		t.Error("gate impl constants")
	}
	if GS.String() != "GS" || IS.String() != "IS" {
		t.Error("reorder constants")
	}
}

// TestCompileSimulateSeparately exercises the two-phase public flow
// including program inspection.
func TestCompileSimulateSeparately(t *testing.T) {
	dev, err := NewLinearDevice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	circ := NewBuilder("two", 4).H(0).H(1).H(2).H(3).CNOT(0, 3).MeasureAll().MustCircuit()
	prog, err := Compile(circ, dev, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prog.NumQubits != 4 || len(prog.Ops) == 0 {
		t.Fatalf("program: %v", prog)
	}
	res, err := Simulate(prog, dev, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.MSGates < 1 {
		t.Error("expected at least one MS gate")
	}
}

func TestPublicLowering(t *testing.T) {
	circ := NewBuilder("low", 2).CNOT(0, 1).MustCircuit()
	lowered, err := LowerToNative(circ)
	if err != nil {
		t.Fatal(err)
	}
	if lowered.TwoQubitGates() != 1 || lowered.SingleQubitGates() != 4 {
		t.Errorf("lowered counts: 2Q=%d 1Q=%d", lowered.TwoQubitGates(), lowered.SingleQubitGates())
	}
}

func TestPublicSimulateTraced(t *testing.T) {
	dev, err := NewLinearDevice(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	circ := NewBuilder("tr", 4).H(0).H(1).H(2).H(3).CNOT(1, 2).MeasureAll().MustCircuit()
	prog, err := Compile(circ, dev, DefaultCompileOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, trace, err := SimulateTraced(prog, dev, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 || len(trace) != len(prog.Ops) {
		t.Errorf("trace result: time=%g entries=%d", res.TotalTime, len(trace))
	}
	if err := trace.Validate(); err != nil {
		t.Error(err)
	}
	if !strings.Contains(trace.Gantt(30), "T0") {
		t.Error("gantt render")
	}
}

func TestPublicFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps")
	}
	f6, err := RunFigure6(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(f6.Capacities) != 6 {
		t.Error("figure 6 capacities")
	}
	f7, err := RunFigure7(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(f7.Topologies) != 2 {
		t.Error("figure 7 topologies")
	}
	f8, err := RunFigure8(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(f8.Combos) != 8 {
		t.Error("figure 8 combos")
	}
}

func TestPublicRingDevice(t *testing.T) {
	d, err := ParseDevice("R6", 18)
	if err != nil {
		t.Fatal(err)
	}
	circ, err := Benchmark("BV")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(circ, d, DefaultCompileOptions(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.Fidelity <= 0 {
		t.Error("ring run fidelity")
	}
}

func TestPublicLoadParams(t *testing.T) {
	p := DefaultParams()
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadParams(data)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != p {
		t.Error("LoadParams round trip mismatch")
	}
	if _, err := LoadParams([]byte("not json")); err == nil {
		t.Error("bad params should fail")
	}
}
