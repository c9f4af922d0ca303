package sim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// compileAndRun is the end-to-end helper used across the tests.
func compileAndRun(t *testing.T, c *circuit.Circuit, d *device.Device, opts compiler.Options, params models.Params) *Result {
	t.Helper()
	p, err := compiler.Compile(c, d, opts)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	r, err := Run(p, d, params)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

func pinned(name string, n int) *circuit.Builder {
	b := circuit.NewBuilder(name, n)
	for q := 0; q < n; q++ {
		b.H(q)
	}
	return b
}

func TestSingleGateTiming(t *testing.T) {
	// One H gate: makespan should be exactly the 1Q gate time.
	c := circuit.NewBuilder("h", 1).H(0).MustCircuit()
	d, _ := device.NewLinear(1, 4)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	if r.TotalTime != params.OneQubitTime {
		t.Errorf("TotalTime = %g, want %g", r.TotalTime, params.OneQubitTime)
	}
	if r.OneQGates != 1 {
		t.Errorf("OneQGates = %d", r.OneQGates)
	}
}

func TestSerialGatesInOneTrap(t *testing.T) {
	// Gates in one trap serialize even when they touch disjoint qubits.
	c := circuit.NewBuilder("serial", 4).CNOT(0, 1).CNOT(2, 3).MustCircuit()
	d, _ := device.NewLinear(1, 6)
	params := models.Default()
	params.Gate = models.FM
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	// Chain of 4 ions: FM time = max(13.33*4-54, 100) = 100 each, serial.
	if r.TotalTime != 200 {
		t.Errorf("TotalTime = %g, want 200 (serialized trap)", r.TotalTime)
	}
}

func TestParallelGatesAcrossTraps(t *testing.T) {
	// Independent gates in different traps overlap.
	c := pinned("par", 4).CNOT(0, 1).CNOT(2, 3).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	// 4 H gates (2 serial per trap) + one 100µs FM gate per trap, all
	// parallel across traps: 2*5 + 100.
	if r.TotalTime != 110 {
		t.Errorf("TotalTime = %g, want 110 (parallel traps)", r.TotalTime)
	}
}

func TestShuttleTimingBreakdown(t *testing.T) {
	// One cross-trap gate on adjacent traps with the mover already at the
	// correct end: split + move + merge + gate.
	c := pinned("shuttle", 4).CNOT(1, 2).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	params := models.Default()
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(isa.OpSwapGS) != 0 {
		t.Fatalf("expected no reorder (qubit 1 at right end):\n%s", p)
	}
	r, err := Run(p, d, params)
	if err != nil {
		t.Fatal(err)
	}
	// 2 serialized H per trap (10µs, parallel across traps), then
	// 80 split + 5 move + 80 merge + FM gate in a 3-ion chain (100µs).
	want := 10.0 + 80 + 5 + 80 + 100
	if math.Abs(r.TotalTime-want) > 1e-9 {
		t.Errorf("TotalTime = %g, want %g", r.TotalTime, want)
	}
	if r.Splits != 1 || r.Merges != 1 || r.Moves != 1 {
		t.Errorf("shuttle counts = %d/%d/%d", r.Splits, r.Merges, r.Moves)
	}
}

func TestHeatingAccumulatesAndFidelityDrops(t *testing.T) {
	// The same logical gate executed with and without a prior shuttle:
	// the shuttled version must be less reliable (hotter chain).
	cold := pinned("cold", 4).CNOT(0, 1).MustCircuit()
	hot := pinned("hot", 4).CNOT(1, 2).CNOT(1, 0).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	params := models.Default()
	rCold := compileAndRun(t, cold, d, compiler.DefaultOptions(), params)
	rHot := compileAndRun(t, hot, d, compiler.DefaultOptions(), params)
	if rHot.MaxMotionalEnergy <= rCold.MaxMotionalEnergy {
		t.Errorf("shuttled run max energy %g should exceed local run %g",
			rHot.MaxMotionalEnergy, rCold.MaxMotionalEnergy)
	}
	if rCold.MaxMotionalEnergy != 0 {
		t.Errorf("no-shuttle run should stay cold, got %g quanta", rCold.MaxMotionalEnergy)
	}
}

func TestSplitMergeEnergyBookkeeping(t *testing.T) {
	// One shuttle between two 2-ion traps: source chain k1, ion
	// k1 + k2*(1 segment), merged chain = ion + k1.
	c := pinned("energy", 4).CNOT(1, 2).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	// Source trap: split leaves 1 ion with e = 0*share + k1 = 0.1.
	// Dest trap: merge of ion (0.1 + 0.01 move) into 0-energy chain
	// + k1 = 0.21.
	wantDest := 0.1 + 0.01 + 0.1
	got := r.MaxMotionalEnergy
	if math.Abs(got-wantDest) > 1e-12 {
		t.Errorf("MaxMotionalEnergy = %g, want %g", got, wantDest)
	}
}

func TestFidelityMatchesManualProduct(t *testing.T) {
	// Single CNOT in a 2-ion chain, no comm: fidelity should equal
	// (1Q fid)^2 * (2Q fid at d=1, N=2, nbar=0).
	c := pinned("manual", 2).CNOT(0, 1).MustCircuit()
	d, _ := device.NewLinear(1, 4)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	tau := params.TwoQubitTime(1, 2)
	f1 := params.OneQubitError(0).Fidelity()
	f2 := params.TwoQubitError(tau, 2, 0).Fidelity()
	want := f1 * f1 * f2
	if math.Abs(r.Fidelity-want) > 1e-12 {
		t.Errorf("Fidelity = %.15g, want %.15g", r.Fidelity, want)
	}
	if r.MSGates != 1 {
		t.Errorf("MSGates = %d, want 1", r.MSGates)
	}
}

func TestGSSwapCostsThreeMSGates(t *testing.T) {
	c := pinned("gs", 6).CNOT(1, 4).MustCircuit()
	d, _ := device.NewLinear(2, 5)
	params := models.Default()
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(isa.OpSwapGS) != 1 {
		t.Fatalf("want 1 GS swap:\n%s", p)
	}
	r, err := Run(p, d, params)
	if err != nil {
		t.Fatal(err)
	}
	// 1 program gate + 3 swap MS gates.
	if r.MSGates != 4 {
		t.Errorf("MSGates = %d, want 4", r.MSGates)
	}
}

func TestISHeatsButAddsNoMSGates(t *testing.T) {
	c := pinned("is", 6).CNOT(1, 4).MustCircuit()
	d, _ := device.NewLinear(2, 5)
	opts := compiler.DefaultOptions()
	opts.Reorder = models.IS
	params := models.Default()
	r := compileAndRun(t, c, d, opts, params)
	if r.MSGates != 1 {
		t.Errorf("MSGates = %d, want 1 (IS adds none)", r.MSGates)
	}
	if r.IonSwaps != 1 {
		t.Errorf("IonSwaps = %d, want 1", r.IonSwaps)
	}
	// The hop adds 3*k1 = 0.3 quanta to the source chain before split.
	if r.MaxMotionalEnergy < 0.3 {
		t.Errorf("MaxMotionalEnergy = %g, want >= 0.3 from the IS hop", r.MaxMotionalEnergy)
	}
}

func TestGSBeatsISOnFidelityWhenReorderingHeavy(t *testing.T) {
	// Force many reorders out of long chains: with ~10-ion chains each IS
	// reorder needs many hops, each adding 3*k1 quanta that never cool,
	// while GS pays a bounded 3-MS-gate cost (paper §X.B).
	b := pinned("reorder-heavy", 20)
	for rep := 0; rep < 10; rep++ {
		b.CNOT(4, 15).CNOT(5, 14).CNOT(3, 16).CNOT(6, 13)
	}
	c := b.MustCircuit()
	d, _ := device.NewLinear(2, 12)
	params := models.Default()
	optsGS := compiler.DefaultOptions()
	optsIS := compiler.DefaultOptions()
	optsIS.Reorder = models.IS
	rGS := compileAndRun(t, c, d, optsGS, params)
	rIS := compileAndRun(t, c, d, optsIS, params)
	if rGS.Fidelity <= rIS.Fidelity {
		t.Errorf("GS fidelity %g should beat IS %g (paper §X.B)", rGS.Fidelity, rIS.Fidelity)
	}
}

func TestMeasurementAccounting(t *testing.T) {
	c := circuit.NewBuilder("m", 3).H(0).MeasureAll().MustCircuit()
	d, _ := device.NewLinear(1, 5)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	if r.Measurements != 3 {
		t.Errorf("Measurements = %d", r.Measurements)
	}
	wantF := math.Pow(params.MeasureFidelity, 3) * math.Pow(params.OneQubitError(0).Fidelity(), 1)
	if math.Abs(r.Fidelity-wantF) > 1e-12 {
		t.Errorf("Fidelity = %g, want %g", r.Fidelity, wantF)
	}
}

func TestTimeAttributionSumsToMakespan(t *testing.T) {
	c, err := apps.QAOA(12, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := device.NewLinear(3, 6)
	params := models.Default()
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	sum := r.ComputeTime + r.CommTime + r.IdleTime
	if math.Abs(sum-r.TotalTime) > 1e-6 {
		t.Errorf("compute+comm+idle = %g != makespan %g", sum, r.TotalTime)
	}
	if r.ComputeTime <= 0 || r.CommTime <= 0 {
		t.Errorf("expected nonzero compute (%g) and comm (%g)", r.ComputeTime, r.CommTime)
	}
}

func TestDeterministicSimulation(t *testing.T) {
	c, err := apps.QAOA(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := device.NewLinear(4, 6)
	params := models.Default()
	r1 := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	r2 := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
	if r1.TotalTime != r2.TotalTime || r1.Fidelity != r2.Fidelity ||
		r1.MaxMotionalEnergy != r2.MaxMotionalEnergy {
		t.Errorf("simulation not deterministic: %v vs %v", r1, r2)
	}
}

// withOperands returns o with the given operands and dependencies.
func withOperands(o isa.Op, qubits []int32, deps ...int32) isa.Op {
	o.SetQubits(qubits...)
	o.SetDeps(deps...)
	return o
}

// setResource makes o name resource r: its trap, segment or junction, as
// its kind uses.
func setResource(o *isa.Op, r int32) { o.Resource = r }

func TestRunRejectsCorruptProgram(t *testing.T) {
	d, _ := device.NewLinear(2, 4)
	params := models.Default()
	valid := &isa.Program{
		Name: "ok", NumQubits: 1, DeviceName: "L2",
		InitialLayout: [][]int{{0}, {}},
	}
	badParams := params
	badParams.OneQubitTime = 0
	badDevice := *d
	badDevice.Capacity = 1
	// oneOp is a one-qubit program whose single op names a resource.
	oneOp := func(op isa.Op) *isa.Program {
		op.GateIndex = -1
		return &isa.Program{
			Name: "bad-resource", NumQubits: 1, DeviceName: "L2",
			InitialLayout: [][]int{{0}, {}},
			Ops:           []isa.Op{withOperands(op, []int32{0})},
		}
	}

	cases := []struct {
		name   string
		prog   *isa.Program
		dev    *device.Device
		params models.Params
	}{
		{"invalid deps", &isa.Program{
			Name: "bad", NumQubits: 1, DeviceName: "L2",
			InitialLayout: [][]int{{0}, {}},
			Ops: []isa.Op{withOperands(isa.Op{
				Kind: isa.OpGate1, Resource: 0,
				Gate: circuit.GateH,
			}, []int32{0}, 3)},
		}, d, params},
		{"layout/device mismatch", &isa.Program{
			Name: "bad2", NumQubits: 1, DeviceName: "L9",
			InitialLayout: [][]int{{0}},
		}, d, params},
		{"invalid params", valid, d, badParams},
		{"invalid device", valid, &badDevice, params},
		// L2 has traps 0-1, segment 0 and no junction.
		{"trap out of range", oneOp(isa.Op{
			Kind: isa.OpGate1, Resource: 7, Gate: circuit.GateH,
		}), d, params},
		{"segment out of range", oneOp(isa.Op{
			Kind: isa.OpMove, Resource: 9,
		}), d, params},
		{"junction out of range", oneOp(isa.Op{
			Kind: isa.OpJunctionCross, Resource: 3,
		}), d, params},
		{"layout overfills a trap", &isa.Program{
			Name: "overfull", NumQubits: 5, DeviceName: "L2",
			InitialLayout: [][]int{{0, 1, 2, 3, 4}, {}},
		}, d, params},
	}
	// Every entry point must reject each case with Run's error.
	entries := []struct {
		name string
		run  func(*isa.Program, *device.Device, models.Params) error
	}{
		{"Run", func(p *isa.Program, d *device.Device, params models.Params) error {
			_, err := Run(p, d, params)
			return err
		}},
		{"RunTraced", func(p *isa.Program, d *device.Device, params models.Params) error {
			_, _, err := RunTraced(p, d, params)
			return err
		}},
		{"Prepare+Run", func(p *isa.Program, d *device.Device, params models.Params) error {
			pr, err := Prepare(p, d)
			if err != nil {
				return err
			}
			_, err = pr.Run(params)
			return err
		}},
	}
	for _, entry := range entries {
		if err := entry.run(valid, d, params); err != nil {
			t.Fatalf("%s rejects the valid baseline program: %v", entry.name, err)
		}
	}
	for _, c := range cases {
		want := entries[0].run(c.prog, c.dev, c.params)
		if want == nil {
			t.Errorf("Run: %s should fail", c.name)
			continue
		}
		for _, entry := range entries[1:] {
			if err := entry.run(c.prog, c.dev, c.params); err == nil || err.Error() != want.Error() {
				t.Errorf("%s: %s: error %v, want %v", entry.name, c.name, err, want)
			}
		}
	}
}

func TestRunDetectsInvariantViolation(t *testing.T) {
	// A handcrafted program that splits a qubit that is not at the named
	// end must fail with a split invariant error.
	d, _ := device.NewLinear(2, 4)
	p := &isa.Program{
		Name: "viol", NumQubits: 3, DeviceName: "L2",
		InitialLayout: [][]int{{0, 1, 2}, {}},
		Ops: []isa.Op{withOperands(isa.Op{
			Kind: isa.OpSplit, Resource: 0,
			End: device.Left, GateIndex: -1,
		}, []int32{1})},
	}
	_, err := Run(p, d, models.Default())
	if err == nil || !strings.Contains(err.Error(), "split") {
		t.Errorf("expected split invariant error, got %v", err)
	}
}

func TestRunDetectsMergeOverflow(t *testing.T) {
	d, _ := device.NewLinear(2, 2)
	p := &isa.Program{
		Name: "overflow", NumQubits: 3, DeviceName: "L2",
		InitialLayout: [][]int{{0}, {1, 2}},
		Ops: []isa.Op{
			withOperands(isa.Op{Kind: isa.OpSplit, Resource: 0, End: device.Right, GateIndex: -1}, []int32{0}),
			withOperands(isa.Op{Kind: isa.OpMove, Resource: 0, GateIndex: -1}, []int32{0}, 0),
			withOperands(isa.Op{Kind: isa.OpMerge, Resource: 1, End: device.Left, GateIndex: -1}, []int32{0}, 1),
		},
	}
	_, err := Run(p, d, models.Default())
	if err == nil || !strings.Contains(err.Error(), "overflow") {
		t.Errorf("expected merge overflow error, got %v", err)
	}
}

func TestSegmentContentionSerializes(t *testing.T) {
	// Two shuttles that need the same segment cannot overlap: compare a
	// run where both cross T0->T1 against the sum of exclusive segment
	// occupancy.
	b := pinned("contend", 6)
	b.CNOT(2, 3) // shuttles q2 right (T0 holds 0,1,2; T1 holds 3,4,5)
	b.CNOT(1, 4) // then q1 must also cross the same segment
	c := b.MustCircuit()
	d, _ := device.NewLinear(2, 5)
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, d, models.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.Moves != 2 {
		t.Fatalf("Moves = %d, want 2", r.Moves)
	}
	// Sanity: the run completed without deadlock and fidelity is sane.
	if !(r.Fidelity > 0 && r.Fidelity < 1) {
		t.Errorf("fidelity = %g", r.Fidelity)
	}
}

func TestLogFidelityMatchesFidelity(t *testing.T) {
	c := pinned("logf", 6).CNOT(0, 5).CNOT(1, 4).MustCircuit()
	d, _ := device.NewLinear(2, 5)
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), models.Default())
	if math.Abs(math.Exp(r.LogFidelity)-r.Fidelity) > 1e-12 {
		t.Errorf("exp(logF)=%g != F=%g", math.Exp(r.LogFidelity), r.Fidelity)
	}
}

func TestResultString(t *testing.T) {
	c := pinned("str", 2).CNOT(0, 1).MustCircuit()
	d, _ := device.NewLinear(1, 4)
	r := compileAndRun(t, c, d, compiler.DefaultOptions(), models.Default())
	s := r.String()
	if !strings.Contains(s, "str on L1") || !strings.Contains(s, "fidelity") {
		t.Errorf("Result.String = %q", s)
	}
}

func TestEndToEndSmallSuite(t *testing.T) {
	// Every app at reduced size must compile and simulate cleanly on both
	// topologies with all four gate implementations.
	smalls := map[string]*circuit.Circuit{}
	if c, err := apps.QAOA(12, 2, 1); err == nil {
		smalls["qaoa"] = c
	}
	if c, err := apps.QFT(10); err == nil {
		smalls["qft"] = c
	}
	if c, err := apps.Adder(5); err == nil {
		smalls["adder"] = c
	}
	if c, err := apps.BV(11); err == nil {
		smalls["bv"] = c
	}
	if c, err := apps.SquareRoot(6); err == nil {
		smalls["sqrt"] = c
	}
	if c, err := apps.Supremacy(3, 4, 30, 1); err == nil {
		smalls["supremacy"] = c
	}
	if len(smalls) != 6 {
		t.Fatal("failed to build small suite")
	}
	lin, _ := device.NewLinear(3, 6)
	grid, _ := device.NewGrid(2, 2, 6)
	for name, c := range smalls {
		for _, d := range []*device.Device{lin, grid} {
			if c.NumQubits > d.MaxIons() {
				continue
			}
			for _, impl := range models.GateImpls() {
				params := models.Default()
				params.Gate = impl
				r := compileAndRun(t, c, d, compiler.DefaultOptions(), params)
				if r.TotalTime <= 0 {
					t.Errorf("%s on %s (%s): zero makespan", name, d.Name, impl)
				}
				if r.Fidelity <= 0 || r.Fidelity > 1 {
					t.Errorf("%s on %s (%s): fidelity %g out of range", name, d.Name, impl, r.Fidelity)
				}
			}
		}
	}
}

// TestTransitEnergyObserved pins the fix for in-transit heating going
// unobserved: an ion shuttled across a multi-junction route is a one-ion
// chain whose energy must count toward the device-wide maximum even if it
// never merges anywhere. The program is hand-built (the compiler always
// ends routes with a merge, which would launder the transit energy into a
// per-trap observation).
func TestTransitEnergyObserved(t *testing.T) {
	d, err := device.NewGrid(2, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	router := device.NewRouter(d, device.DefaultRouteCosts())
	var route *device.Route
	src := -1
	for a := 0; a < d.NumTraps() && src < 0; a++ {
		for b := 0; b < d.NumTraps(); b++ {
			if a == b {
				continue
			}
			r, err := router.Route(a, b)
			if err != nil {
				continue
			}
			if len(r.Junctions()) >= 2 && len(r.PassThroughs()) == 0 {
				src, route = a, r
				break
			}
		}
	}
	if src < 0 {
		t.Fatal("grid has no junction-only multi-junction route")
	}

	layout := make([][]int, d.NumTraps())
	layout[src] = []int{0}
	ops := []isa.Op{withOperands(isa.Op{
		Kind: isa.OpSplit, Resource: int32(src), End: route.SrcEnd, GateIndex: -1,
	}, []int32{0})}
	for _, hop := range route.Hops {
		prev := int32(len(ops) - 1)
		ops = append(ops, withOperands(isa.Op{
			Kind: isa.OpMove, Resource: int32(hop.Segment), GateIndex: -1,
		}, []int32{0}, prev))
		if hop.Node.Kind == device.NodeJunction {
			ops = append(ops, withOperands(isa.Op{
				Kind: isa.OpJunctionCross, Resource: int32(hop.Node.Index), GateIndex: -1,
			}, []int32{0}, int32(len(ops)-1)))
		}
	}
	// Deliberately no merge: the ion ends the program in transit.
	prog := &isa.Program{
		Name: "transit", NumQubits: 1, DeviceName: d.Name,
		InitialLayout: layout, Ops: ops,
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("hand-built program invalid: %v", err)
	}
	params := models.Default()
	r, err := Run(prog, d, params)
	if err != nil {
		t.Fatal(err)
	}
	// Splitting the 1-ion chain carries chain energy 0 plus the k1 jolt,
	// then every segment unit adds k2 and every junction crossing adds
	// its heating constant.
	units := 0
	for _, h := range route.Hops {
		units += d.Segments[h.Segment].Length
	}
	want := params.K1 +
		float64(units)*params.K2 +
		float64(len(route.Junctions()))*params.JunctionHeating
	if math.Abs(r.MaxMotionalEnergy-want) > 1e-12 {
		t.Errorf("MaxMotionalEnergy = %g, want %g (in-transit maximum)", r.MaxMotionalEnergy, want)
	}
	for trap, e := range r.MaxMotionalPerTrap {
		if e != 0 {
			t.Errorf("trap %d max energy = %g, want 0 (all heat is in transit)", trap, e)
		}
	}
}

// TestLinkTransitResetsMotionalEnergy pins the photonic link's energy
// reset: an ion split out of module 0's exit trap carries at least the
// split jolt K1, but its state crosses the link onto a fresh cooled ion,
// so merging it into module 1's empty entry trap leaves that chain at
// exactly the merge jolt K1. Without the reset it would read at least
// 2·K1.
func TestLinkTransitResetsMotionalEnergy(t *testing.T) {
	d, err := device.Parse("Mod2:L2", 4)
	if err != nil {
		t.Fatal(err)
	}
	// Module 0 is traps 0-1 and module 1 traps 2-3; the link joins trap
	// 1's exit end to trap 2's entry end.
	const exit, entry = 1, 2
	route, err := device.NewRouter(d, device.DefaultRouteCosts()).Route(exit, entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(route.Hops) != 1 || d.Segments[route.Hops[0].Segment].Kind != device.SegPhotonic {
		t.Fatalf("route T%d→T%d is not one photonic hop: %+v", exit, entry, route.Hops)
	}
	hop := route.Hops[0]
	layout := make([][]int, d.NumTraps())
	layout[exit] = []int{0}
	prog := &isa.Program{
		Name: "link-reset", NumQubits: 1, DeviceName: d.Name,
		InitialLayout: layout,
		Ops: []isa.Op{
			withOperands(isa.Op{Kind: isa.OpSplit, Resource: exit, End: route.SrcEnd, GateIndex: -1}, []int32{0}),
			withOperands(isa.Op{Kind: isa.OpLinkTransit, Resource: int32(hop.Segment), GateIndex: -1}, []int32{0}, 0),
			withOperands(isa.Op{Kind: isa.OpMerge, Resource: entry, End: hop.EnterEnd, GateIndex: -1}, []int32{0}, 1),
		},
	}
	params := models.Default()
	r, err := Run(prog, d, params)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkTransits != 1 {
		t.Fatalf("LinkTransits = %d, want 1", r.LinkTransits)
	}
	if got := r.MaxMotionalPerTrap[exit]; got != 0 {
		t.Errorf("emptied exit trap max energy = %g, want 0", got)
	}
	if got := r.MaxMotionalPerTrap[entry]; got != params.K1 {
		t.Errorf("entry trap energy = %g, want exactly K1 = %g (transit energy reset by the link)", got, params.K1)
	}
}
