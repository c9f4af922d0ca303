package qccd_test

import (
	"fmt"
	"log"
	"sort"

	qccd "repro"
)

// Example is the quick start: the paper's QAOA benchmark on the linear
// L6 device at its recommended capacity of 20 ions per trap, compiled
// with the paper's heuristics and simulated with FM gates.
func Example() {
	dev, err := qccd.NewLinearDevice(6, 20)
	if err != nil {
		log.Fatal(err)
	}
	circ, err := qccd.Benchmark("QAOA")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(qccd.ComputeStats(circ))
	res, err := qccd.Run(circ, dev, qccd.DefaultCompileOptions(), qccd.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("run time %.4f s, fidelity %.4f\n", res.TotalSeconds(), res.Fidelity)
	fmt.Printf("shuttles: %d splits, %d merges, %d moves\n", res.Splits, res.Merges, res.Moves)
	// Output:
	// QAOA64       qubits=64  2Q=1260  1Q=1344  depth=123   pattern=nearest-neighbor
	// run time 0.0994 s, fidelity 0.4841
	// shuttles: 88 splits, 88 merges, 88 moves
}

// ExampleExplorer_Sweep recommends hardware for one workload: it sweeps
// topology, trap capacity and gate implementation for SquareRoot and
// ranks the design points by fidelity (§XII).
func ExampleExplorer_Sweep() {
	var points []qccd.DesignPoint
	for _, topology := range []string{"L6", "G2x3"} {
		for _, capacity := range []int{14, 22, 30} {
			for _, gate := range []qccd.GateImpl{qccd.AM2, qccd.FM} {
				points = append(points, qccd.DesignPoint{
					App: "SquareRoot", Topology: topology, Capacity: capacity, Gate: gate, Reorder: qccd.GS,
				})
			}
		}
	}
	outcomes := qccd.NewExplorer(qccd.DefaultParams()).Sweep(points)
	for _, o := range outcomes {
		if o.Err != nil {
			log.Fatal(o.Err)
		}
	}
	sort.SliceStable(outcomes, func(i, j int) bool {
		return outcomes[i].Result.Fidelity > outcomes[j].Result.Fidelity
	})
	for _, o := range outcomes[:3] {
		fmt.Printf("%-30s fidelity %.3e\n", o.Point, o.Result.Fidelity)
	}
	// Output:
	// SquareRoot/G2x3/cap14/FM-GS    fidelity 1.390e-01
	// SquareRoot/G2x3/cap14/AM2-GS   fidelity 1.278e-01
	// SquareRoot/L6/cap30/FM-GS      fidelity 6.306e-03
}

// ExampleWriteQASM exports a benchmark as OpenQASM 2.0 for other
// toolchains; qccdsim -emit-qasm does the same from the command line.
func ExampleWriteQASM() {
	circ, err := qccd.Benchmark("BV@2")
	if err != nil {
		log.Fatal(err)
	}
	src, err := qccd.WriteQASM(circ)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(src)
	// Output:
	// OPENQASM 2.0;
	// include "qelib1.inc";
	// qreg q[3];
	// creg c[3];
	// h q[0];
	// h q[1];
	// x q[2];
	// h q[2];
	// cx q[0],q[2];
	// cx q[1],q[2];
	// h q[0];
	// h q[1];
	// measure q[0] -> c[0];
	// measure q[1] -> c[1];
	// measure q[2] -> c[2];
}

// ExampleRun compiles and simulates a small circuit on a two-trap device.
func ExampleRun() {
	dev, err := qccd.NewLinearDevice(2, 4)
	if err != nil {
		log.Fatal(err)
	}
	circ := qccd.NewBuilder("ghz4", 4).
		H(0).CNOT(0, 1).CNOT(1, 2).CNOT(2, 3).
		MeasureAll().
		MustCircuit()
	res, err := qccd.Run(circ, dev, qccd.DefaultCompileOptions(), qccd.DefaultParams())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("shuttles: %d split(s), %d merge(s)\n", res.Splits, res.Merges)
	fmt.Printf("MS gates: %d\n", res.MSGates)
	// Output:
	// shuttles: 1 split(s), 1 merge(s)
	// MS gates: 3
}

// ExampleParseQASM runs an OpenQASM 2.0 program through the toolflow.
func ExampleParseQASM() {
	circ, err := qccd.ParseQASM("bell", `
		OPENQASM 2.0;
		include "qelib1.inc";
		qreg q[2];
		creg c[2];
		h q[0];
		cx q[0],q[1];
		measure q -> c;
	`)
	if err != nil {
		log.Fatal(err)
	}
	st := qccd.ComputeStats(circ)
	fmt.Printf("%d qubits, %d two-qubit gates, %d measurements\n",
		st.Qubits, st.Gate2Q, st.Measures)
	// Output:
	// 2 qubits, 1 two-qubit gates, 2 measurements
}

// ExampleTable1 prints the paper's shuttling-time table.
func ExampleTable1() {
	fmt.Print(qccd.Table1(qccd.DefaultParams()))
	// Output:
	// Table I: Shuttling operation times
	// Operation                            Time
	// Move ion through one segment          5µs
	// Splitting operation on a chain       80µs
	// Merging an ion with a chain          80µs
	// Crossing Y-junction                 100µs
	// Crossing X-junction                 120µs
}
