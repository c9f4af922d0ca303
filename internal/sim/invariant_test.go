package sim

import (
	"math"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// invariantSpecs are the device specs of device.TestFamilyGridBuildsValid:
// every topology family, including nested multi-module devices.
var invariantSpecs = []string{
	"L1", "L2", "L7", "L40",
	"G2x2", "G2x9", "G3x3", "G3x7", "G5x4",
	"R3", "R5", "R24",
	"M2x2", "M2x5", "M3x3", "M4x4",
	"Mod2:L3", "Mod3:G2x2", "Mod2:G3x3", "Mod5:L1", "Mod2:Mod2:G2x2",
}

// TestSimulatorInvariants checks the simulator's physical and accounting
// invariants on every family at capacity 22, over 64-qubit apps and a
// surface-code workload, all three compiler policies and both reordering
// methods. A spec too small to hold an app is skipped for that app.
func TestSimulatorInvariants(t *testing.T) {
	appNames := []string{"QAOA@64", "SquareRoot@64", "BV@64", "Surface@3"}
	policies := []models.PolicyName{"", "lookahead", "congestion"}
	params := models.Default()
	runs := 0
	for _, name := range appNames {
		c, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range invariantSpecs {
			d, err := device.Parse(spec, 22)
			if err != nil {
				t.Fatal(err)
			}
			if c.NumQubits > d.MaxIons() {
				continue
			}
			for _, policy := range policies {
				for _, reorder := range models.ReorderMethods() {
					opts := compiler.DefaultOptions()
					opts.Policy, opts.Reorder = policy, reorder
					label := name + "/" + spec + "/" + policy.String() + "/" + reorder.String()
					p, err := compiler.Compile(c, d, opts)
					if err != nil {
						t.Errorf("%s: compile: %v", label, err)
						continue
					}
					r, trace, err := RunTraced(p, d, params)
					if err != nil {
						t.Errorf("%s: run: %v", label, err)
						continue
					}
					checkInvariants(t, label, p, params, r, trace)
					runs++
				}
			}
		}
	}
	if runs < 100 {
		t.Errorf("only %d runs; the spec table no longer holds the apps", runs)
	}
}

// checkInvariants asserts one run's invariants: a physically consistent
// trace, a makespan split that sums to the makespan and matches the
// reference sweep bit for bit, and counters equal to the program's op
// counts.
func checkInvariants(t *testing.T, label string, p *isa.Program, params models.Params, r *Result, trace Trace) {
	t.Helper()
	if err := trace.Validate(); err != nil {
		t.Errorf("%s: %v", label, err)
	}
	if sum := r.ComputeTime + r.CommTime + r.IdleTime; math.Abs(sum-r.TotalTime) > 1e-9*r.TotalTime {
		t.Errorf("%s: compute+comm+idle = %v, makespan %v", label, sum, r.TotalTime)
	}
	compute, comm, idle := referenceAttribution(trace, r.TotalTime)
	if r.ComputeTime != compute || r.CommTime != comm || r.IdleTime != idle {
		t.Errorf("%s: attribution (%v, %v, %v), reference sweep (%v, %v, %v)",
			label, r.ComputeTime, r.CommTime, r.IdleTime, compute, comm, idle)
	}
	swaps := p.CountKind(isa.OpSwapGS)
	counters := []struct {
		name      string
		got, want int
	}{
		{"GSSwaps", r.GSSwaps, swaps},
		{"Splits", r.Splits, p.CountKind(isa.OpSplit)},
		{"Merges", r.Merges, p.CountKind(isa.OpMerge)},
		{"Moves", r.Moves, p.CountKind(isa.OpMove)},
		{"JunctionCrossings", r.JunctionCrossings, p.CountKind(isa.OpJunctionCross)},
		{"IonSwaps", r.IonSwaps, p.CountKind(isa.OpIonSwap)},
		{"LinkTransits", r.LinkTransits, p.CountKind(isa.OpLinkTransit)},
		{"Measurements", r.Measurements, p.CountKind(isa.OpMeasure)},
		{"MSGates", r.MSGates, p.CountKind(isa.OpGate2) + params.SwapMSGates*swaps},
		{"OneQGates", r.OneQGates, p.CountKind(isa.OpGate1) + params.SwapOneQGates*swaps},
	}
	for _, c := range counters {
		if c.got != c.want {
			t.Errorf("%s: %s = %d, program implies %d", label, c.name, c.got, c.want)
		}
	}
}

// referenceAttribution splits the makespan into compute, comm and idle
// time by an offline sweep over the trace's positive-length intervals:
// starts in start order and ends in end order, merged with starts first
// on ties. An instant is compute when any compute op is live, comm when
// only comm ops are, and idle otherwise. It is the simulator's former
// post-run accounting, kept as the reference for the online one.
func referenceAttribution(trace Trace, makespan float64) (compute, comm, idle float64) {
	var live []TraceEntry
	for _, e := range trace {
		if e.End > e.Start {
			live = append(live, e)
		}
	}
	starts := append([]TraceEntry(nil), live...)
	sort.SliceStable(starts, func(i, j int) bool { return starts[i].Start < starts[j].Start })
	ends := append([]TraceEntry(nil), live...)
	sort.SliceStable(ends, func(i, j int) bool { return ends[i].End < ends[j].End })

	var activeCompute, activeComm int
	prev := 0.0
	advance := func(t float64) {
		if t > prev {
			dt := t - prev
			switch {
			case activeCompute > 0:
				compute += dt
			case activeComm > 0:
				comm += dt
			default:
				idle += dt
			}
			prev = t
		}
	}
	si, ei := 0, 0
	for si < len(starts) || ei < len(ends) {
		takeStart := ei >= len(ends)
		if !takeStart && si < len(starts) {
			takeStart = starts[si].Start <= ends[ei].End
		}
		var e TraceEntry
		var delta int
		var t float64
		if takeStart {
			e = starts[si]
			si++
			t, delta = e.Start, +1
		} else {
			e = ends[ei]
			ei++
			t, delta = e.End, -1
		}
		advance(t)
		if e.Kind.Category() == isa.CatCompute {
			activeCompute += delta
		} else {
			activeComm += delta
		}
	}
	if makespan > prev {
		idle += makespan - prev
	}
	return compute, comm, idle
}
