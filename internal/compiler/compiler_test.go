package compiler

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

func linear(traps, cap int, t *testing.T) *device.Device {
	t.Helper()
	d, err := device.NewLinear(traps, cap)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// pinned starts a builder whose first-use order (and hence trap mapping)
// is exactly qubit index order, by touching every qubit with an H first.
func pinned(name string, n int) *circuit.Builder {
	b := circuit.NewBuilder(name, n)
	for q := 0; q < n; q++ {
		b.H(q)
	}
	return b
}

// replayStructure walks the program in op-ID order, applying every
// chain-structure change and asserting the compiler's invariants: splits
// find their qubit at the named end, merges never overflow capacity,
// swaps touch co-located qubits, and gates operate on co-located qubits.
// It is a slice-based reference for isa.Chains: it steps one beside its
// own model and requires every trap's chain to agree after each op.
func replayStructure(t *testing.T, p *isa.Program, d *device.Device) {
	t.Helper()
	shared := isa.NewChains(p.InitialLayout, p.NumQubits, d.Capacity)
	chains := make([][]int, len(p.InitialLayout))
	trapOf := make(map[int]int)
	for trap, chain := range p.InitialLayout {
		chains[trap] = append([]int(nil), chain...)
		if len(chain) > d.Capacity {
			t.Fatalf("initial layout overfills trap %d: %d > %d", trap, len(chain), d.Capacity)
		}
		for _, q := range chain {
			trapOf[q] = trap
		}
	}
	pos := func(q, trap int) int {
		for i, x := range chains[trap] {
			if x == q {
				return i
			}
		}
		return -1
	}
	for i := range p.Ops {
		op := &p.Ops[i]
		trap := int(op.Trap())
		qs := op.Qubits()
		switch op.Kind {
		case isa.OpSplit:
			q := int(qs[0])
			chain := chains[trap]
			want := 0
			if op.End == device.Right {
				want = len(chain) - 1
			}
			if pos(q, trap) != want {
				t.Fatalf("op %d: split q%d not at %s end of T%d (%v)", i, q, op.End, trap, chain)
			}
			if op.End == device.Left {
				chains[trap] = chain[1:]
			} else {
				chains[trap] = chain[:len(chain)-1]
			}
			delete(trapOf, q)
		case isa.OpMerge:
			q := int(qs[0])
			if len(chains[trap]) >= d.Capacity {
				t.Fatalf("op %d: merge overflows trap %d (cap %d)", i, trap, d.Capacity)
			}
			if op.End == device.Left {
				chains[trap] = append([]int{q}, chains[trap]...)
			} else {
				chains[trap] = append(append([]int(nil), chains[trap]...), q)
			}
			trapOf[q] = trap
		case isa.OpSwapGS:
			a, b := int(qs[0]), int(qs[1])
			pa, pb := pos(a, trap), pos(b, trap)
			if pa < 0 || pb < 0 {
				t.Fatalf("op %d: swapgs operands not co-located in T%d", i, trap)
			}
			chains[trap][pa], chains[trap][pb] = chains[trap][pb], chains[trap][pa]
		case isa.OpIonSwap:
			a, b := int(qs[0]), int(qs[1])
			pa, pb := pos(a, trap), pos(b, trap)
			if pa < 0 || pb < 0 || pa-pb != 1 && pb-pa != 1 {
				t.Fatalf("op %d: ionswap operands not adjacent in T%d (%d,%d)", i, pa, pb, trap)
			}
			chains[trap][pa], chains[trap][pb] = chains[trap][pb], chains[trap][pa]
		case isa.OpGate2:
			a, b := int(qs[0]), int(qs[1])
			if trapOf[a] != trap || trapOf[b] != trap {
				t.Fatalf("op %d: gate2 operands q%d,q%d not in trap %d", i, a, b, trap)
			}
		case isa.OpGate1, isa.OpMeasure:
			if trapOf[int(qs[0])] != trap {
				t.Fatalf("op %d: %s qubit not in trap %d", i, op.Kind, trap)
			}
		}
		if err := shared.Apply(op); err != nil {
			t.Fatalf("op %d: isa.Chains rejects %s: %v", i, op, err)
		}
		for tr, chain := range chains {
			same := shared.Len(tr) == len(chain)
			for k := 0; same && k < len(chain); k++ {
				same = shared.At(tr, k) == chain[k]
			}
			if !same {
				t.Fatalf("op %d: isa.Chains disagrees on T%d, reference %v", i, tr, chain)
			}
		}
		for _, q := range qs {
			want, ok := trapOf[int(q)]
			if !ok {
				want = -1
			}
			if got := shared.Trap(int(q)); got != want {
				t.Fatalf("op %d: isa.Chains puts q%d in trap %d, reference %d", i, q, got, want)
			}
		}
	}
}

func TestSameTrapGateNeedsNoComm(t *testing.T) {
	c := circuit.NewBuilder("local", 4).H(0).CNOT(0, 1).CNOT(2, 3).MustCircuit()
	d := linear(2, 10, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(p.Ops) - p.CountKind(isa.OpGate1) - p.CountKind(isa.OpGate2) - p.CountKind(isa.OpMeasure); got != 0 {
		t.Errorf("local circuit compiled with %d comm ops:\n%s", got, p)
	}
	if p.CountKind(isa.OpGate2) != 2 || p.CountKind(isa.OpGate1) != 1 {
		t.Errorf("unexpected gate counts:\n%s", p)
	}
}

func TestCrossTrapGateShuttles(t *testing.T) {
	// Two traps of capacity 4, qubits 0-2 in T0 and 3-5 in T1 (buffer 2
	// reduced to 1 by spare = 8-6 = 2).
	c := pinned("cross", 6).CNOT(0, 3).MustCircuit()
	d := linear(2, 4, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(isa.OpSplit) != 1 || p.CountKind(isa.OpMove) != 1 || p.CountKind(isa.OpMerge) != 1 {
		t.Errorf("expected 1 split/move/merge:\n%s", p)
	}
	replayStructure(t, p, d)
}

func TestPassThroughLinear(t *testing.T) {
	// L3 at capacity 3 with buffer 2: one qubit per trap; the gate between
	// T0 and T2 passes through T1: 2 splits, 2 merges (Figure 4).
	c := pinned("pass", 3).CNOT(0, 2).MustCircuit()
	d := linear(3, 3, t)
	opts := DefaultOptions()
	p, err := Compile(c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(isa.OpSplit) != 2 || p.CountKind(isa.OpMerge) != 2 {
		t.Errorf("pass-through should double split/merge:\n%s", p)
	}
	replayStructure(t, p, d)
}

func TestReorderGSInsertsOneSwap(t *testing.T) {
	// T0={0,1,2}, T1={3,4,5} (cap 5, buffer 2). Gate (1,4) has both
	// operands mid-chain, so whichever moves needs exactly one GS swap to
	// reach the chain end (the tie-break picks qubit 1).
	c := pinned("gs", 6).CNOT(1, 4).MustCircuit()
	d := linear(2, 5, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(isa.OpSwapGS); got != 1 {
		t.Errorf("GS swaps = %d, want 1:\n%s", got, p)
	}
	replayStructure(t, p, d)
}

func TestReorderISInsertsHopChain(t *testing.T) {
	c := pinned("is", 6).CNOT(1, 4).MustCircuit()
	d := linear(2, 5, t)
	opts := DefaultOptions()
	opts.Reorder = models.IS
	p, err := Compile(c, d, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Qubit 1 at position 1 of a 3-chain hops once to the right end.
	if got := p.CountKind(isa.OpIonSwap); got != 1 {
		t.Errorf("IS hops = %d, want 1:\n%s", got, p)
	}
	if p.CountKind(isa.OpSwapGS) != 0 {
		t.Error("IS compilation should not emit GS swaps")
	}
	replayStructure(t, p, d)
}

func TestMoverPrefersChainEnd(t *testing.T) {
	// Gate (0,3): qubit 3 sits alone in T1 (trivially at an end) while
	// qubit 0 is at T0's far end; the compiler should move qubit 3 and
	// avoid any reorder.
	c := pinned("ends", 4).CNOT(0, 3).MustCircuit()
	d := linear(2, 5, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(isa.OpSwapGS) + p.CountKind(isa.OpIonSwap); got != 0 {
		t.Errorf("reorders = %d, want 0 (move the end ion instead):\n%s", got, p)
	}
	replayStructure(t, p, d)
}

func TestNoReorderWhenAlreadyAtEnd(t *testing.T) {
	// Qubit 2 sits at the right end of T0's chain {0,1,2}; gate with T1
	// should shuttle without any reorder.
	c := pinned("noreorder", 4).CNOT(2, 3).MustCircuit()
	d := linear(2, 5, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p.CountKind(isa.OpSwapGS)+p.CountKind(isa.OpIonSwap) != 0 {
		t.Errorf("unexpected reorder:\n%s", p)
	}
}

func TestGridRouteEmitsJunctionCrossings(t *testing.T) {
	d, err := device.NewGrid(2, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	// 8 qubits over 4 traps, mapping pinned to index order: T0={0,1,2},
	// T1={3,4,5}, T2={6,7}. The gate (0,7) must cross both junctions.
	c := pinned("grid", 8).CNOT(0, 7).MustCircuit()
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(isa.OpJunctionCross); got == 0 {
		t.Errorf("grid compile has no junction crossings:\n%s", p)
	}
	replayStructure(t, p, d)
}

func TestMeasurementLowering(t *testing.T) {
	c := circuit.NewBuilder("m", 3).H(0).MeasureAll().MustCircuit()
	d := linear(2, 4, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CountKind(isa.OpMeasure); got != 3 {
		t.Errorf("measures = %d, want 3", got)
	}
}

func TestEvictionOnFullTrap(t *testing.T) {
	// L3 at capacity 3 with 8 qubits: T0 and T1 are full (usable = cap
	// since spare < traps). The cross-trap gate (0,3) must first evict an
	// idle ion from T1 to T2.
	c := pinned("full", 8).CNOT(0, 3).MustCircuit()
	d := linear(3, 3, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	replayStructure(t, p, d)
}

func TestTooManyQubitsRejected(t *testing.T) {
	c := circuit.NewBuilder("big", 20).H(0).MustCircuit()
	d := linear(2, 5, t)
	if _, err := Compile(c, d, DefaultOptions()); err == nil {
		t.Fatal("20 qubits on a 10-ion device should fail")
	}
}

func TestInvalidCircuitRejected(t *testing.T) {
	c := circuit.New("bad", 2)
	c.Append(circuit.NewGate1(circuit.GateH, 7))
	d := linear(2, 5, t)
	if _, err := Compile(c, d, DefaultOptions()); err == nil {
		t.Fatal("invalid circuit should fail compilation")
	}
}

func TestDeterministicCompilation(t *testing.T) {
	qc, err := apps.QAOA(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := linear(3, 8, t)
	p1, err := Compile(qc, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(qc, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if p1.String() != p2.String() {
		t.Error("compilation is not deterministic")
	}
}

func TestInitialLayoutRespectsBuffer(t *testing.T) {
	c := circuit.NewBuilder("layout", 10).H(0).MustCircuit()
	d := linear(4, 5, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Spare = 20-10 = 10, per-trap spare 2 -> buffer 2 -> usable 3.
	for trap, chain := range p.InitialLayout {
		if len(chain) > 3 {
			t.Errorf("trap %d holds %d ions, want <= 3 (buffer 2)", trap, len(chain))
		}
	}
}

func TestFirstUseOrderMapping(t *testing.T) {
	// Qubit 5 is used first, so it should be placed in trap 0.
	c := circuit.NewBuilder("fuo", 6).H(5).CNOT(5, 0).MustCircuit()
	d := linear(3, 4, t)
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.InitialLayout[0]) == 0 || p.InitialLayout[0][0] != 5 {
		t.Errorf("layout = %v, want qubit 5 first in trap 0", p.InitialLayout)
	}
}

func TestAllAppsCompileOnPaperDevices(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite compile is slow for -short")
	}
	lin := linear(6, 18, t)
	grid, err := device.NewGrid(2, 3, 18)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range apps.Suite() {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		for _, d := range []*device.Device{lin, grid} {
			for _, method := range models.ReorderMethods() {
				opts := DefaultOptions()
				opts.Reorder = method
				p, err := Compile(c, d, opts)
				if err != nil {
					t.Fatalf("%s on %s (%s): %v", spec.Name, d.Name, method, err)
				}
				replayStructure(t, p, d)
				if p.CountKind(isa.OpGate2) != c.TwoQubitGates() {
					t.Errorf("%s on %s: gate2 count %d != IR %d",
						spec.Name, d.Name, p.CountKind(isa.OpGate2), c.TwoQubitGates())
				}
			}
		}
	}
}

// TestZeroOptionsArePaperConfiguration requires the zero Options to
// compile, byte for byte, the programs DefaultOptions does: the paper's
// configuration is the zero value, and nothing outside Options varies it.
func TestZeroOptionsArePaperConfiguration(t *testing.T) {
	for _, spec := range []string{"L6", "G2x3"} {
		d, err := device.Parse(spec, 22)
		if err != nil {
			t.Fatal(err)
		}
		for _, app := range []string{"BV", "QFT", "SquareRoot"} {
			c, err := apps.ByName(app)
			if err != nil {
				t.Fatal(err)
			}
			for _, reorder := range models.ReorderMethods() {
				opts := DefaultOptions()
				opts.Reorder = reorder
				want, err := Compile(c, d, opts)
				if err != nil {
					t.Fatal(err)
				}
				got, err := Compile(c, d, Options{Reorder: reorder})
				if err != nil {
					t.Fatal(err)
				}
				if got.String() != want.String() {
					t.Errorf("%s on %s (%s): Options{} compiles %d ops, DefaultOptions() %d",
						app, spec, reorder, len(got.Ops), len(want.Ops))
				}
			}
		}
	}
}

func TestCompileOnRing(t *testing.T) {
	c := pinned("ring", 6).CNOT(0, 5).MustCircuit()
	d, err := device.NewRing(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(c, d, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	replayStructure(t, p, d)
}
