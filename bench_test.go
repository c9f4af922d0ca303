package qccd

// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`), plus per-stage
// compiler/simulator benchmarks and ablations over the design choices
// DESIGN.md calls out (buffer slots, reordering method, gate
// implementation, routing weights).
//
// The figure benchmarks report headline shape metrics via b.ReportMetric
// so a bench run doubles as a reproduction check (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stabilizer"
)

func BenchmarkTable1(b *testing.B) {
	p := DefaultParams()
	for i := 0; i < b.N; i++ {
		if Table1(p) == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6(b *testing.B) {
	var f *Figure6
	var err error
	for i := 0; i < b.N; i++ {
		f, err = RunFigure6(DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(experiments.Ratio(f.Fidelity["Supremacy"]), "supremacy-best/worst-fid")
	b.ReportMetric(f.MaxMotional["SquareRoot"][0], "sqrt-maxE-cap14-quanta")
}

func BenchmarkFig7(b *testing.B) {
	var f *Figure7
	var err error
	for i := 0; i < b.N; i++ {
		f, err = RunFigure7(DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	gain := 0.0
	for i, lin := range f.Fidelity["L6"]["SquareRoot"] {
		if g := f.Fidelity["G2x3"]["SquareRoot"][i] / lin; g > gain {
			gain = g
		}
	}
	b.ReportMetric(gain, "sqrt-grid/linear-fid")
}

func BenchmarkFig8(b *testing.B) {
	var f *Figure8
	var err error
	for i := 0; i < b.N; i++ {
		f, err = RunFigure8(DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
	}
	// GS-over-IS fidelity advantage for the reorder-heavy SquareRoot.
	gain := 0.0
	for i, gs := range f.Fidelity["SquareRoot"]["FM-GS"] {
		if is := f.Fidelity["SquareRoot"]["FM-IS"][i]; is > 0 {
			if g := gs / is; g > gain {
				gain = g
			}
		}
	}
	b.ReportMetric(gain, "sqrt-GS/IS-fid")
}

// benchCompile measures backend compilation of one suite app on L6.
func benchCompile(b *testing.B, app string) {
	b.Helper()
	circ, err := Benchmark(app)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewLinearDevice(6, 22)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compile(circ, dev, DefaultCompileOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSimulate measures simulation of a pre-compiled program.
func benchSimulate(b *testing.B, app string) {
	b.Helper()
	circ, err := Benchmark(app)
	if err != nil {
		b.Fatal(err)
	}
	dev, err := NewLinearDevice(6, 22)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(circ, dev, DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(prog, dev, params); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	for _, app := range experiments.PaperApps {
		b.Run(app, func(b *testing.B) { benchCompile(b, app) })
	}
}

func BenchmarkSimulate(b *testing.B) {
	for _, app := range experiments.PaperApps {
		b.Run(app, func(b *testing.B) { benchSimulate(b, app) })
	}
}

// BenchmarkAblationBufferSlots sweeps the mapper's per-trap headroom (the
// paper fixes 2, §VI). The trade is workload-dependent: buffers avoid
// eviction churn but shrink usable capacity, which for communication-
// heavy apps can cost more than the churn it prevents — the reported
// fidelity/splits metrics quantify both sides.
func BenchmarkAblationBufferSlots(b *testing.B) {
	circ, err := Benchmark("SquareRoot")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	for _, buf := range []int{0, 1, 2, 4} {
		b.Run(fmt.Sprintf("buffer%d", buf), func(b *testing.B) {
			dev, err := NewLinearDevice(6, 22)
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultCompileOptions()
			opts.BufferSlots = buf
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(circ, dev, opts, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fidelity, "fidelity")
			b.ReportMetric(float64(res.Splits), "splits")
		})
	}
}

// BenchmarkAblationReorder compares GS and IS end to end on the workload
// the paper highlights (§X.B).
func BenchmarkAblationReorder(b *testing.B) {
	circ, err := Benchmark("SquareRoot")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	for _, method := range []ReorderMethod{GS, IS} {
		b.Run(method.String(), func(b *testing.B) {
			dev, err := NewLinearDevice(6, 22)
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultCompileOptions()
			opts.Reorder = method
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(circ, dev, opts, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fidelity, "fidelity")
			b.ReportMetric(res.MaxMotionalEnergy, "maxE-quanta")
		})
	}
}

// BenchmarkAblationGateImpl compares the four MS implementations on QAOA
// (short-range; AM2 should win) and QFT (long-range; FM/PM should win).
func BenchmarkAblationGateImpl(b *testing.B) {
	params := DefaultParams()
	for _, app := range []string{"QAOA", "QFT"} {
		circ, err := Benchmark(app)
		if err != nil {
			b.Fatal(err)
		}
		for _, gate := range []GateImpl{AM1, AM2, PM, FM} {
			b.Run(app+"/"+gate.String(), func(b *testing.B) {
				dev, err := NewLinearDevice(6, 22)
				if err != nil {
					b.Fatal(err)
				}
				p := params
				p.Gate = gate
				var res *Result
				for i := 0; i < b.N; i++ {
					res, err = Run(circ, dev, DefaultCompileOptions(), p)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(res.Fidelity, "fidelity")
				b.ReportMetric(res.TotalSeconds(), "runtime-s")
			})
		}
	}
}

// BenchmarkAblationRouting compares the default route weights against a
// hop-count-only router, exercising the pass-through-avoidance choice the
// grid topology depends on.
func BenchmarkAblationRouting(b *testing.B) {
	circ, err := Benchmark("SquareRoot")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	configs := map[string]device.RouteCosts{
		"weighted": device.DefaultRouteCosts(),
		"hops":     {Segment: 1, JunctionY: 1, JunctionX: 1, TrapTransit: 1},
	}
	for name, costs := range configs {
		b.Run(name, func(b *testing.B) {
			dev, err := NewGridDevice(2, 3, 22)
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultCompileOptions()
			opts.RouteCosts = costs
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(circ, dev, opts, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fidelity, "fidelity")
		})
	}
}

// BenchmarkCompilerScaling tracks compile throughput against circuit size
// for capacity-planning the toolflow itself.
func BenchmarkCompilerScaling(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("qft%d", n), func(b *testing.B) {
			circ, err := qftSized(n)
			if err != nil {
				b.Fatal(err)
			}
			dev, err := NewLinearDevice(6, (n+5)/6+3)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := compiler.Compile(circ, dev, compiler.DefaultOptions()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompilePolicy compares compile cost across the compiler
// policies, at the paper's QFT size and at a stress size, so the
// overhead of the lookahead scorer and the congestion ledger relative to
// the baseline heuristics stays visible in benchstat diffs.
func BenchmarkCompilePolicy(b *testing.B) {
	for _, info := range CompilerPolicies() {
		pol, err := ParsePolicy(info.Name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(info.Name, func(b *testing.B) {
			for _, n := range []int{64, 200} {
				b.Run(fmt.Sprintf("qft%d", n), func(b *testing.B) {
					circ, err := qftSized(n)
					if err != nil {
						b.Fatal(err)
					}
					dev, err := NewLinearDevice(6, (n+5)/6+3)
					if err != nil {
						b.Fatal(err)
					}
					opts := compiler.DefaultOptions()
					opts.Policy = pol
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := compiler.Compile(circ, dev, opts); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// qftSized builds a QFT-shaped instance of the given width (each
// controlled phase as its 2-CNOT skeleton, matching the suite generator).
func qftSized(n int) (*Circuit, error) {
	if n == 64 {
		return Benchmark("QFT")
	}
	b := NewBuilder("qft", n)
	for i := 0; i < n; i++ {
		b.H(i)
		for j := i + 1; j < n; j++ {
			b.CNOT(j, i)
			b.CNOT(j, i)
		}
	}
	b.MeasureAll()
	return b.Circuit()
}

// BenchmarkAblationLowering compares abstract-gate programs against their
// native MS+rotation lowering, quantifying the single-qubit overhead that
// abstract counting hides.
func BenchmarkAblationLowering(b *testing.B) {
	params := DefaultParams()
	circ, err := Benchmark("QAOA")
	if err != nil {
		b.Fatal(err)
	}
	lowered, err := LowerToNative(circ)
	if err != nil {
		b.Fatal(err)
	}
	for name, c := range map[string]*Circuit{"abstract": circ, "native": lowered} {
		b.Run(name, func(b *testing.B) {
			dev, err := NewLinearDevice(6, 22)
			if err != nil {
				b.Fatal(err)
			}
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(c, dev, DefaultCompileOptions(), params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.TotalSeconds(), "runtime-s")
			b.ReportMetric(float64(res.OneQGates), "1q-gates")
		})
	}
}

// BenchmarkAblationMapping compares the paper's sequential fill-to-
// capacity mapping against balanced contiguous blocks.
func BenchmarkAblationMapping(b *testing.B) {
	circ, err := Benchmark("QFT")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	for _, balanced := range []bool{false, true} {
		name := "sequential"
		if balanced {
			name = "balanced"
		}
		b.Run(name, func(b *testing.B) {
			dev, err := NewLinearDevice(6, 30)
			if err != nil {
				b.Fatal(err)
			}
			opts := DefaultCompileOptions()
			opts.BalancedMapping = balanced
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(circ, dev, opts, params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fidelity, "fidelity")
			b.ReportMetric(res.TotalSeconds(), "runtime-s")
		})
	}
}

// BenchmarkAblationRing compares the linear L6 against a 6-trap ring:
// the wraparound halves the worst-case trap distance for all-to-all
// traffic at the cost of one extra segment (a beyond-paper topology).
func BenchmarkAblationRing(b *testing.B) {
	circ, err := Benchmark("QFT")
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	for _, spec := range []string{"L6", "R6"} {
		b.Run(spec, func(b *testing.B) {
			dev, err := ParseDevice(spec, 22)
			if err != nil {
				b.Fatal(err)
			}
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Run(circ, dev, DefaultCompileOptions(), params)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Fidelity, "fidelity")
			b.ReportMetric(float64(res.Splits), "splits")
		})
	}
}

// surfaceDistances are the code distances of the surface-code benchmarks
// (161 qubits at d=9, well past dense statevector reach).
var surfaceDistances = []int{5, 7, 9}

// BenchmarkSimulateSurface measures discrete-event simulation of
// pre-compiled Surface@d syndrome-extraction programs — the stabilizer-
// era workload family — on linear devices sized to hold them.
func BenchmarkSimulateSurface(b *testing.B) {
	params := DefaultParams()
	for _, d := range surfaceDistances {
		n := 2*d*d - 1
		b.Run(fmt.Sprintf("d%d-%dq", d, n), func(b *testing.B) {
			circ, err := Benchmark(fmt.Sprintf("Surface@%d", d))
			if err != nil {
				b.Fatal(err)
			}
			dev, err := largeDevice("linear", n)
			if err != nil {
				b.Fatal(err)
			}
			prog, err := Compile(circ, dev, DefaultCompileOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sim.Run(prog, dev, params); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStabilizerSurface measures the tableau backend alone on the
// same circuits: the O(n²)-per-gate fast path that makes Clifford
// workloads at this width simulable at all.
func BenchmarkStabilizerSurface(b *testing.B) {
	for _, d := range surfaceDistances {
		b.Run(fmt.Sprintf("d%d", d), func(b *testing.B) {
			circ, err := Benchmark(fmt.Sprintf("Surface@%d", d))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := stabilizer.Run(circ); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkQASM measures frontend throughput: writing and re-parsing the
// largest suite benchmark.
func BenchmarkQASM(b *testing.B) {
	circ, err := Benchmark("QFT")
	if err != nil {
		b.Fatal(err)
	}
	src, err := WriteQASM(circ)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := WriteQASM(circ); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.SetBytes(int64(len(src)))
		for i := 0; i < b.N; i++ {
			if _, err := ParseQASM("qft", src); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// largeDevice builds a linear, grid or ring device sized to hold n qubits
// at the paper-recommended 22-ion capacity with two buffer slots.
func largeDevice(form string, n int) (*Device, error) {
	const capacity = 22
	traps := (n + capacity - 3) / (capacity - 2)
	if traps < 2 {
		traps = 2
	}
	switch form {
	case "linear":
		return NewLinearDevice(traps, capacity)
	case "grid":
		return NewGridDevice(2, (traps+1)/2, capacity)
	case "grid3":
		return NewGridDevice(3, (traps+2)/3, capacity)
	case "mesh":
		return NewMeshDevice(2, (traps+1)/2, capacity)
	case "mod":
		inner, err := NewGridDevice(2, (traps+3)/4, capacity)
		if err != nil {
			return nil, err
		}
		return NewMultiModuleDevice(2, inner)
	case "ring":
		return ParseDevice(fmt.Sprintf("R%d", traps), capacity)
	}
	return nil, fmt.Errorf("unknown device form %q", form)
}

// largeForms are the topology families of the large-device benchmarks:
// the original three plus the registry's X-junction grid, junction-rich
// mesh, and photonically linked multi-module forms.
var largeForms = []string{"linear", "grid", "grid3", "mesh", "mod", "ring"}

// BenchmarkCompileLarge measures backend compilation at the 100-200 qubit
// scale the ROADMAP targets (sized QAOA instances, the scaling study's
// communication-heavy workload).
func BenchmarkCompileLarge(b *testing.B) {
	for _, n := range []int{100, 200} {
		circ, err := Benchmark(fmt.Sprintf("QAOA@%d", n))
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range largeForms {
			b.Run(fmt.Sprintf("%s-%d", form, n), func(b *testing.B) {
				dev, err := largeDevice(form, n)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := Compile(circ, dev, DefaultCompileOptions()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimulateLarge measures simulation of pre-compiled 100-200
// qubit programs across the three topology families.
func BenchmarkSimulateLarge(b *testing.B) {
	for _, n := range []int{100, 200} {
		circ, err := Benchmark(fmt.Sprintf("QAOA@%d", n))
		if err != nil {
			b.Fatal(err)
		}
		for _, form := range largeForms {
			b.Run(fmt.Sprintf("%s-%d", form, n), func(b *testing.B) {
				dev, err := largeDevice(form, n)
				if err != nil {
					b.Fatal(err)
				}
				prog, err := Compile(circ, dev, DefaultCompileOptions())
				if err != nil {
					b.Fatal(err)
				}
				params := DefaultParams()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(prog, dev, params); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTitanPoint times the layers of the largest design point the
// repository runs: QFT@512 on Mod3:G2x5 at capacity 22 (FM, GS,
// baseline), a point of the -titan study with about 0.8 M ISA ops. The
// circuit, and for the simulator's layers the program, are built outside
// the timer. simulate is sim.Run, which is prepare followed by run: the
// per-program checks and dependency adjacency, then the event loop.
func BenchmarkTitanPoint(b *testing.B) {
	circ, err := Benchmark("QFT@512")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := ParseDevice("Mod3:G2x5", 22)
	if err != nil {
		b.Fatal(err)
	}
	opts := DefaultCompileOptions()
	b.Run("compile", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Compile(circ, dev, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	prog, err := Compile(circ, dev, opts)
	if err != nil {
		b.Fatal(err)
	}
	params := DefaultParams()
	b.Run("simulate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(prog, dev, params); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Prepare(prog, dev); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		pr, err := sim.Prepare(prog, dev)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := pr.Run(params); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulateSiblings times the four gate siblings of one compile
// group, QFT on G2x3 at capacity 18 (GS, baseline): four sim.Run calls,
// against one sim.Prepare and four runs of it, which is how a group
// simulates them.
func BenchmarkSimulateSiblings(b *testing.B) {
	circ, err := Benchmark("QFT")
	if err != nil {
		b.Fatal(err)
	}
	dev, err := ParseDevice("G2x3", 18)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := Compile(circ, dev, DefaultCompileOptions())
	if err != nil {
		b.Fatal(err)
	}
	siblings := make([]Params, 0, 4)
	for _, gate := range []GateImpl{AM1, AM2, PM, FM} {
		p := DefaultParams()
		p.Gate = gate
		siblings = append(siblings, p)
	}
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, p := range siblings {
				if _, err := sim.Run(prog, dev, p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pr, err := sim.Prepare(prog, dev)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range siblings {
				if _, err := pr.Run(p); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkCircuitBuild times building the QFT@512 circuit, the circuit
// layer of BenchmarkTitanPoint's point, which the toolflow memoizes per
// app name.
func BenchmarkCircuitBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Benchmark("QFT@512"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperGridStream streams the cold paper grid, the 576 points of
// experiments.PaperSpace, through Toolflow.Stream on two workers, as a
// qccdd sweep computes it: each iteration starts a fresh toolflow, so it
// builds every circuit and compiles every program again. B/op is what one
// cold grid allocates, the op lists and per-op run arrays the workers
// reuse included.
func BenchmarkPaperGridStream(b *testing.B) {
	grid, err := experiments.PaperSpace().Compile()
	if err != nil {
		b.Fatal(err)
	}
	src := grid.Source(grid.FullWindow())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tf := core.New(DefaultParams())
		var failed error
		all := tf.Stream(context.Background(), src, 2, func(r core.Row) bool {
			failed = r.Outcome.Err
			return failed == nil
		})
		if failed != nil || !all {
			b.Fatalf("stream stopped (all rows: %v): %v", all, failed)
		}
	}
}
