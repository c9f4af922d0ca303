// Package qccd is a design toolflow for Quantum Charge Coupled Device
// (QCCD) trapped-ion quantum computers, reproducing Murali et al.,
// "Architecting Noisy Intermediate-Scale Trapped Ion Quantum Computers"
// (ISCA 2020). It bundles:
//
//   - a program IR with an OpenQASM 2.0 interface and generators for the
//     paper's six NISQ benchmarks (Supremacy, QAOA, SquareRoot, QFT,
//     Adder, BV);
//   - a device model with an extensible topology-family registry: linear,
//     grid, ring, junction-mesh and photonically linked multi-module QCCD
//     devices (traps, shuttling segments, X/Y junctions, optical
//     interconnects);
//   - an optimizing backend compiler (greedy qubit mapping, shortest-path
//     shuttle routing, GS/IS chain reordering, congestion-aware issue
//     order);
//   - a discrete-event simulator with published gate-time models
//     (AM1/AM2/PM/FM), Table I shuttling times, the split/merge/move
//     heating model, and the Eq. 1 fidelity model;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// # Quick start
//
//	dev, _ := qccd.NewLinearDevice(6, 20)
//	circ, _ := qccd.Benchmark("QAOA")
//	res, _ := qccd.Run(circ, dev, qccd.DefaultCompileOptions(), qccd.DefaultParams())
//	fmt.Println(res)
//
// All times are microseconds internally; Result exposes seconds helpers.
package qccd

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/experiments"
	"repro/internal/isa"
	"repro/internal/models"
	"repro/internal/qasm"
	"repro/internal/sim"
)

// Core type surface, aliased from the implementation packages so one
// import serves typical users.
type (
	// Circuit is the program IR: a named gate list over n qubits.
	Circuit = circuit.Circuit
	// Gate is one IR operation.
	Gate = circuit.Gate
	// Builder incrementally constructs validated circuits.
	Builder = circuit.Builder
	// Stats summarizes a workload (Table II row).
	Stats = circuit.Stats
	// Device is a static QCCD hardware description.
	Device = device.Device
	// Program is a compiled executable of primitive QCCD instructions.
	Program = isa.Program
	// Result carries simulated application and device metrics.
	Result = sim.Result
	// Trace is a per-op execution timeline with queueing delays.
	Trace = sim.Trace
	// Params bundles every physical model constant (§VII).
	Params = models.Params
	// GateImpl selects the two-qubit MS gate implementation.
	GateImpl = models.GateImpl
	// ReorderMethod selects GS or IS chain reordering.
	ReorderMethod = models.ReorderMethod
	// PolicyName names a compiler policy; the zero value is the baseline
	// (the paper's heuristics).
	PolicyName = models.PolicyName
	// PolicyInfo describes one compiler policy.
	PolicyInfo = models.PolicyInfo
	// CompileOptions configures the backend compiler.
	CompileOptions = compiler.Options
	// BenchmarkSpec describes one suite benchmark and its Table II
	// reference numbers.
	BenchmarkSpec = apps.Spec
	// TopologyFamily describes one registered device spec family: its
	// grammar, constraints and builder.
	TopologyFamily = device.Family
)

// Gate implementation and reordering method constants (§VII.A, §IV.C).
const (
	AM1 = models.AM1
	AM2 = models.AM2
	PM  = models.PM
	FM  = models.FM

	GS = models.GS
	IS = models.IS
)

// NewLinearDevice builds an L<n> device: traps in a row joined by single
// segments (Honeywell-style, paper §VIII.B).
func NewLinearDevice(traps, capacity int) (*Device, error) {
	return device.NewLinear(traps, capacity)
}

// NewGridDevice builds a G<rows>x<cols> device with a junction between
// row-adjacent traps and vertical segments joining junction columns
// (generalizing the paper's Figure 2b).
func NewGridDevice(rows, cols, capacity int) (*Device, error) {
	return device.NewGrid(rows, cols, capacity)
}

// NewMeshDevice builds an M<rows>x<cols> junction-rich mesh: every trap
// bounded by junctions on both ends, so all routes are junction-only and
// never merge through an intermediate chain.
func NewMeshDevice(rows, cols, capacity int) (*Device, error) {
	return device.NewMesh(rows, cols, capacity)
}

// NewMultiModuleDevice chains k copies of the inner device with photonic
// interconnect links (TITAN-style distributed QCCD). The inner topology
// must expose at least two free trap ends (linear or grid, not ring or
// mesh).
func NewMultiModuleDevice(k int, inner *Device) (*Device, error) {
	return device.NewMultiModule(k, inner)
}

// ParseDevice builds a device from a spec string such as "L6", "G2x3",
// "R6", "M2x3" or "Mod2:G2x3", dispatching through the topology family
// registry.
func ParseDevice(spec string, capacity int) (*Device, error) {
	return device.Parse(spec, capacity)
}

// TopologyFamilies lists every registered topology family in registration
// order — the families GET /v1/topologies reports and ParseDevice accepts.
func TopologyFamilies() []TopologyFamily { return device.Families() }

// ValidateTopology reports whether spec names a buildable device at the
// given capacity, without retaining the built device.
func ValidateTopology(spec string, capacity int) error {
	return device.ValidateSpec(spec, capacity)
}

// DefaultParams returns the paper-faithful physical constants (§VII,
// Table I, with the calibrations documented in DESIGN.md §3).
func DefaultParams() Params { return models.Default() }

// LoadParams parses and validates a JSON parameter file (the format
// produced by marshaling Params), so calibration variants can be swapped
// into tools without recompiling.
func LoadParams(data []byte) (Params, error) { return models.LoadJSON(data) }

// DefaultCompileOptions returns the paper's compiler configuration:
// GS reordering and two buffer slots per trap.
func DefaultCompileOptions() CompileOptions { return compiler.DefaultOptions() }

// CompilerPolicies lists the compiler policies, baseline first. Any
// returned name is valid for CompileOptions.Policy (via ParsePolicy), a
// design point's "policy" field, or a sweep's "policies" axis.
func CompilerPolicies() []PolicyInfo { return models.Policies() }

// ParsePolicy resolves a policy name case-insensitively; "" and
// "baseline" both mean the baseline policy.
func ParsePolicy(name string) (PolicyName, error) { return models.ParsePolicy(name) }

// NewCircuit returns an empty circuit over n qubits.
func NewCircuit(name string, n int) *Circuit { return circuit.New(name, n) }

// NewBuilder starts building a circuit over n qubits with validation.
func NewBuilder(name string, n int) *Builder { return circuit.NewBuilder(name, n) }

// ComputeStats derives Table II-style workload statistics.
func ComputeStats(c *Circuit) Stats { return circuit.ComputeStats(c) }

// Benchmarks returns the paper's Table II suite specifications.
func Benchmarks() []BenchmarkSpec { return apps.Suite() }

// Benchmark builds a suite circuit by name (case-insensitive): Supremacy,
// QAOA, SquareRoot, QFT, Adder or BV.
func Benchmark(name string) (*Circuit, error) { return apps.ByName(name) }

// ParseQASM parses OpenQASM 2.0 source into circuit IR.
func ParseQASM(name, src string) (*Circuit, error) { return qasm.Parse(name, src) }

// WriteQASM renders circuit IR as OpenQASM 2.0.
func WriteQASM(c *Circuit) (string, error) { return qasm.Write(c) }

// Compile lowers a circuit onto a device, producing an executable program
// of primitive QCCD instructions (§VI).
func Compile(c *Circuit, d *Device, opts CompileOptions) (*Program, error) {
	return compiler.Compile(c, d, opts)
}

// LowerToNative rewrites a circuit into the native trapped-ion gate set
// (MS entangling gates plus single-qubit rotations), making single-qubit
// overhead explicit for timing studies ([76], Maslov 2017).
func LowerToNative(c *Circuit) (*Circuit, error) { return compiler.LowerToNative(c) }

// Simulate executes a compiled program on a device under the given
// physical parameters (§V.B, §VII).
func Simulate(p *Program, d *Device, params Params) (*Result, error) {
	return sim.Run(p, d, params)
}

// SimulateTraced simulates like Simulate and additionally returns the
// per-op execution timeline (start, end, resource, queueing delay).
func SimulateTraced(p *Program, d *Device, params Params) (*Result, Trace, error) {
	return sim.RunTraced(p, d, params)
}

// Run compiles and simulates in one step.
func Run(c *Circuit, d *Device, opts CompileOptions, params Params) (*Result, error) {
	p, err := Compile(c, d, opts)
	if err != nil {
		return nil, err
	}
	return Simulate(p, d, params)
}

// Experiment harness surface: the design-space exploration types used to
// regenerate the paper's evaluation (cmd/experiments drives these).
type (
	// DesignPoint identifies one app/topology/capacity/microarchitecture
	// combination.
	DesignPoint = core.Point
	// Outcome pairs a design point with its result.
	Outcome = core.Outcome
	// Explorer runs design points concurrently with cached circuits.
	Explorer = core.Toolflow
	// Figure6, Figure7 and Figure8 hold the regenerated evaluation data.
	Figure6 = experiments.Fig6
	Figure7 = experiments.Fig7
	Figure8 = experiments.Fig8
)

// NewExplorer returns a design-space explorer over the benchmark suite.
func NewExplorer(base Params) *Explorer { return core.New(base) }

// NewCachedExplorer returns an explorer backed by a content-addressed
// outcome cache of at most entries results (entries <= 0 means
// unbounded): repeated design points — within one sweep or across
// sweeps — are computed once and identical in-flight points are
// deduplicated (cmd/qccdd serves this over HTTP).
func NewCachedExplorer(base Params, entries int) *Explorer {
	return core.NewCached(base, entries)
}

// RunFigure6 regenerates the paper's Figure 6 (trap sizing, §IX.A).
// Failed design points are reported as one error; the figure is still
// returned, with NaN at those points.
func RunFigure6(base Params) (*Figure6, error) { return figure("fig6", experiments.RunFig6, base) }

// RunFigure7 regenerates the paper's Figure 7 (topology, §IX.B),
// reporting failed design points as RunFigure6 does.
func RunFigure7(base Params) (*Figure7, error) { return figure("fig7", experiments.RunFig7, base) }

// RunFigure8 regenerates the paper's Figure 8 (microarchitecture, §X),
// reporting failed design points as RunFigure6 does.
func RunFigure8(base Params) (*Figure8, error) { return figure("fig8", experiments.RunFig8, base) }

// figure runs a figure on a fresh toolflow and reports its failed design
// points as one error.
func figure[F interface{ Failures() []Outcome }](name string, run func(*core.Toolflow) (F, error), base Params) (F, error) {
	f, err := run(core.New(base))
	if err != nil {
		return f, err
	}
	if fails := f.Failures(); len(fails) > 0 {
		return f, fmt.Errorf("%s: %d design points failed; first %s: %w",
			name, len(fails), fails[0].Point, fails[0].Err)
	}
	return f, nil
}

// Table1 renders the paper's Table I from model constants.
func Table1(p Params) string { return experiments.Table1(p) }

// Table2 renders the paper's Table II from the generated benchmarks.
func Table2() (string, error) { return experiments.Table2() }
