// Command qccdsim compiles and simulates one application on one QCCD
// device configuration, printing application metrics (run time, fidelity)
// and device metrics (heating, shuttling activity).
//
// Usage:
//
//	qccdsim -app QFT -device L6 -capacity 22 -gate FM -reorder GS
//	qccdsim -app BV@160 -device Mod2:G2x3 -capacity 22 -policy lookahead
//	qccdsim -qasm program.qasm -device G2x3 -capacity 18 -dump
//	qccdsim -app QFT -emit-qasm > qft.qasm
//
// The -app flag selects a built-in Table II benchmark or a sized one
// (<app>@<n>); -qasm loads an OpenQASM 2.0 file instead. -dump prints the
// compiled executable. -emit-qasm prints the loaded circuit (after -lower,
// if given) as OpenQASM 2.0 and exits, as -stats does with its statistics.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"repro"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qccdsim: ")
	var (
		app      = flag.String("app", "QAOA", "built-in benchmark: Supremacy|QAOA|SquareRoot|QFT|Adder|BV, or sized <app>@<n> (e.g. BV@160)")
		qasmFile = flag.String("qasm", "", "OpenQASM 2.0 file to run instead of -app")
		devSpec  = flag.String("device", "L6", "device topology: "+deviceForms())
		capacity = flag.Int("capacity", 20, "maximum ions per trap")
		dump     = flag.Bool("dump", false, "print the compiled executable")
		stats    = flag.Bool("stats", false, "print workload statistics and exit")
		emitQASM = flag.Bool("emit-qasm", false, "print the circuit as OpenQASM 2.0 and exit")
		lower    = flag.Bool("lower", false, "lower abstract gates to native MS + rotations first")
		traceOut = flag.String("trace", "", "write the per-op execution timeline CSV to this file")
		gantt    = flag.Bool("gantt", false, "print an ASCII timeline of device resource usage")
		paramsIn = flag.String("params", "", "JSON file overriding the physical model parameters")
		gate     = qccd.FM
		reorder  = qccd.GS
		policy   qccd.PolicyName
	)
	flag.TextVar(&gate, "gate", gate, "two-qubit gate implementation: AM1|AM2|PM|FM")
	flag.TextVar(&reorder, "reorder", reorder, "chain reordering method: GS|IS")
	flag.TextVar(&policy, "policy", policy, "compiler policy: "+policyNames())
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	circ, err := loadCircuit(*app, *qasmFile)
	if err != nil {
		log.Fatal(err)
	}
	if *lower {
		if circ, err = qccd.LowerToNative(circ); err != nil {
			log.Fatal(err)
		}
	}
	if *stats {
		fmt.Println(qccd.ComputeStats(circ))
		return
	}
	if *emitQASM {
		src, err := qccd.WriteQASM(circ)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(src)
		return
	}

	dev, err := qccd.ParseDevice(*devSpec, *capacity)
	if err != nil {
		log.Fatal(err)
	}
	params := qccd.DefaultParams()
	if *paramsIn != "" {
		data, err := os.ReadFile(*paramsIn)
		if err != nil {
			log.Fatal(err)
		}
		if params, err = qccd.LoadParams(data); err != nil {
			log.Fatal(err)
		}
	}
	params.Gate = gate
	prog, err := qccd.Compile(circ, dev, qccd.CompileOptions{Reorder: reorder, Policy: policy})
	if err != nil {
		log.Fatal(err)
	}
	if *dump {
		fmt.Print(prog)
	}
	if *traceOut != "" || *gantt {
		res, trace, err := qccd.SimulateTraced(prog, dev, params)
		if err != nil {
			log.Fatal(err)
		}
		if *gantt {
			fmt.Print(trace.Gantt(100))
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				log.Fatal(err)
			}
			err = trace.WriteCSV(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				log.Fatalf("%s: %v", *traceOut, err)
			}
			fmt.Printf("wrote execution trace to %s (%d ops)\n", *traceOut, len(trace))
		}
		report(res, params)
		return
	}
	res, err := qccd.Simulate(prog, dev, params)
	if err != nil {
		log.Fatal(err)
	}
	report(res, params)
}

// deviceForms lists the spec form of every topology family, e.g.
// "L<n>|G<r>x<c>|...".
func deviceForms() string {
	var forms []string
	for _, f := range qccd.TopologyFamilies() {
		forms = append(forms, f.Form)
	}
	return strings.Join(forms, "|")
}

// policyNames lists every compiler policy, e.g. "baseline|congestion|...".
func policyNames() string {
	var names []string
	for _, p := range qccd.CompilerPolicies() {
		names = append(names, p.Name)
	}
	return strings.Join(names, "|")
}

func loadCircuit(app, qasmFile string) (*qccd.Circuit, error) {
	if qasmFile == "" {
		return qccd.Benchmark(app)
	}
	src, err := os.ReadFile(qasmFile)
	if err != nil {
		return nil, err
	}
	return qccd.ParseQASM(qasmFile, string(src))
}

func report(r *qccd.Result, params qccd.Params) {
	fmt.Printf("application:        %s on %s (%s gates)\n", r.Name, r.DeviceName, params.Gate)
	fmt.Printf("run time:           %.6f s (compute %.6f s, communication %.6f s, idle %.6f s)\n",
		r.TotalSeconds(), r.ComputeSeconds(), r.CommSeconds(), r.IdleTime*1e-6)
	fmt.Printf("fidelity:           %.6g (log %.4f)\n", r.Fidelity, r.LogFidelity)
	fmt.Printf("MS gates executed:  %d (mean motional err %.3e, background err %.3e)\n",
		r.MSGates, r.MeanMotionalError, r.MeanBackgroundError)
	fmt.Printf("1Q gates / measures: %d / %d\n", r.OneQGates, r.Measurements)
	fmt.Printf("max motional energy: %.2f quanta (per trap: %s)\n", r.MaxMotionalEnergy, formatFloats(r.MaxMotionalPerTrap))
	fmt.Printf("shuttling:          %d splits, %d merges, %d moves, %d junction crossings, %d ion swaps, %d GS swaps\n",
		r.Splits, r.Merges, r.Moves, r.JunctionCrossings, r.IonSwaps, r.GSSwaps)
}

func formatFloats(xs []float64) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%.1f", x)
	}
	return s + "]"
}
