package experiments

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// PaperApps lists the Table II applications in the order the figures use.
var PaperApps = []string{"Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV"}

// seriesOf extracts one float per outcome via f, NaN for failed points.
func seriesOf(outs []core.Outcome, f func(*core.Outcome) float64) []float64 {
	vals := make([]float64, len(outs))
	for i := range outs {
		if outs[i].Err != nil {
			vals[i] = math.NaN()
			continue
		}
		vals[i] = f(&outs[i])
	}
	return vals
}

// Fig6 holds the trap-sizing study of §IX.A: all apps on the linear L6
// device with FM gates and GS reordering, swept over trap capacity.
type Fig6 struct {
	Capacities []int
	// Time and Fidelity map app name to per-capacity series (seconds /
	// success probability): panels (a) and (c-e).
	Time     map[string][]float64
	Fidelity map[string][]float64
	// QFTCompute and QFTComm break QFT's serialized op time into
	// computation vs communication: panel (b).
	QFTCompute, QFTComm []float64
	// MaxMotional maps app to the device-wide maximum chain energy in
	// quanta: panel (f).
	MaxMotional map[string][]float64
	// SupremacyMotional and SupremacyBackground are the mean per-MS-gate
	// Eq. 1 error contributions for Supremacy: panel (g).
	SupremacyMotional, SupremacyBackground []float64
	// Outcomes holds every raw design point, app-major.
	Outcomes map[string][]core.Outcome
	evaluated
}

// fig7Space is the Figure 7 grammar: PaperSpace at the paper's FM gates
// and GS reordering, the grammar defaults.
func fig7Space() sweep.Space {
	s := PaperSpace()
	s.Gates, s.Reorders = nil, nil
	return s
}

// RunFig6 executes the Figure 6 sweep on tf, reusing any outcomes its
// cache already holds. Failed design points hold NaN in every series and
// are reported by Failures.
func RunFig6(tf *core.Toolflow) (*Fig6, error) {
	space := fig7Space()
	space.Topologies = []string{"L6"}
	outs, err := evaluate(tf, space)
	if err != nil {
		return nil, err
	}
	f := &Fig6{
		Capacities:  space.Capacities,
		Time:        map[string][]float64{},
		Fidelity:    map[string][]float64{},
		MaxMotional: map[string][]float64{},
		Outcomes:    map[string][]core.Outcome{},
		evaluated:   outs,
	}
	for _, o := range outs {
		f.Outcomes[o.Point.App] = append(f.Outcomes[o.Point.App], o)
	}
	for _, app := range space.Apps {
		outs := f.Outcomes[app]
		f.Time[app] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.TotalSeconds() })
		f.Fidelity[app] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.Fidelity })
		f.MaxMotional[app] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.MaxMotionalEnergy })
	}
	f.QFTCompute = seriesOf(f.Outcomes["QFT"], func(o *core.Outcome) float64 { return o.Result.BusyCompute * 1e-6 })
	f.QFTComm = seriesOf(f.Outcomes["QFT"], func(o *core.Outcome) float64 { return o.Result.BusyComm * 1e-6 })
	f.SupremacyMotional = seriesOf(f.Outcomes["Supremacy"], func(o *core.Outcome) float64 { return o.Result.MeanMotionalError })
	f.SupremacyBackground = seriesOf(f.Outcomes["Supremacy"], func(o *core.Outcome) float64 { return o.Result.MeanBackgroundError })
	return f, nil
}

// Render prints all Figure 6 panels as text tables.
func (f *Fig6) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: Trap sizing choices (L6, FM two-qubit gates, GS reordering)\n\n")
	var timeSeries, fidSeries, motSeries []Series
	for _, app := range PaperApps {
		timeSeries = append(timeSeries, Series{Name: app, Values: f.Time[app], Format: "%.4f"})
		fidSeries = append(fidSeries, Series{Name: app, Values: f.Fidelity[app], Format: "%.3e"})
		motSeries = append(motSeries, Series{Name: app, Values: f.MaxMotional[app], Format: "%.1f"})
	}
	b.WriteString(Table("(a) Application run time (seconds, lower is better)", "cap", f.Capacities, timeSeries))
	b.WriteString("\n")
	b.WriteString(Table("(b) QFT computation vs communication (serialized op time, seconds)", "cap", f.Capacities, []Series{
		{Name: "Computation", Values: f.QFTCompute, Format: "%.4f"},
		{Name: "Communication", Values: f.QFTComm, Format: "%.4f"},
	}))
	b.WriteString("\n")
	b.WriteString(Table("(c-e) Application fidelity (higher is better)", "cap", f.Capacities, fidSeries))
	b.WriteString("\n")
	b.WriteString(Table("(f) Max motional energy across traps (quanta, lower is better)", "cap", f.Capacities, motSeries))
	b.WriteString("\n")
	b.WriteString(Table("(g) Supremacy mean MS-gate error contributions", "cap", f.Capacities, []Series{
		{Name: "Motional", Values: f.SupremacyMotional, Format: "%.3e"},
		{Name: "Background", Values: f.SupremacyBackground, Format: "%.3e"},
	}))
	fmt.Fprintf(&b, "\nSupremacy best/worst fidelity ratio: %.1fx (paper: ~15x)\n",
		Ratio(f.Fidelity["Supremacy"]))
	return b.String()
}

// Fig7 holds the topology study of §IX.B: linear L6 vs grid G2x3, FM
// gates, GS reordering.
type Fig7 struct {
	Capacities []int
	Topologies []string
	// Time and Fidelity map topology then app to per-capacity series:
	// panels (a)-(f).
	Time     map[string]map[string][]float64
	Fidelity map[string]map[string][]float64
	// SqrtMotional maps topology to SquareRoot's max motional energy:
	// panel (g).
	SqrtMotional map[string][]float64
	Outcomes     map[string]map[string][]core.Outcome
	evaluated
}

// RunFig7 executes the Figure 7 sweep on tf, reusing any outcomes its
// cache already holds. Failed design points hold NaN in every series and
// are reported by Failures.
func RunFig7(tf *core.Toolflow) (*Fig7, error) {
	space := fig7Space()
	outs, err := evaluate(tf, space)
	if err != nil {
		return nil, err
	}
	f := &Fig7{
		Capacities:   space.Capacities,
		Topologies:   space.Topologies,
		Time:         map[string]map[string][]float64{},
		Fidelity:     map[string]map[string][]float64{},
		SqrtMotional: map[string][]float64{},
		Outcomes:     map[string]map[string][]core.Outcome{},
		evaluated:    outs,
	}
	for _, topo := range f.Topologies {
		f.Time[topo] = map[string][]float64{}
		f.Fidelity[topo] = map[string][]float64{}
		f.Outcomes[topo] = map[string][]core.Outcome{}
	}
	for _, o := range outs {
		byApp := f.Outcomes[o.Point.Topology]
		byApp[o.Point.App] = append(byApp[o.Point.App], o)
	}
	for _, topo := range f.Topologies {
		for _, app := range space.Apps {
			outs := f.Outcomes[topo][app]
			f.Time[topo][app] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.TotalSeconds() })
			f.Fidelity[topo][app] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.Fidelity })
		}
		f.SqrtMotional[topo] = seriesOf(f.Outcomes[topo]["SquareRoot"],
			func(o *core.Outcome) float64 { return o.Result.MaxMotionalEnergy })
	}
	return f, nil
}

// Render prints all Figure 7 panels as text tables.
func (f *Fig7) Render() string {
	var b strings.Builder
	b.WriteString("Figure 7: Communication topology choices (L6 vs G2x3, FM gates, GS reordering)\n\n")
	for _, app := range PaperApps {
		b.WriteString(Table(fmt.Sprintf("%s: run time (s) and fidelity by topology", app),
			"cap", f.Capacities, []Series{
				{Name: "L6 time", Values: f.Time["L6"][app], Format: "%.4f"},
				{Name: "G2x3 time", Values: f.Time["G2x3"][app], Format: "%.4f"},
				{Name: "L6 fid", Values: f.Fidelity["L6"][app], Format: "%.3e"},
				{Name: "G2x3 fid", Values: f.Fidelity["G2x3"][app], Format: "%.3e"},
			}))
		b.WriteString("\n")
	}
	b.WriteString(Table("(g) SquareRoot max motional energy (quanta)", "cap", f.Capacities, []Series{
		{Name: "Linear", Values: f.SqrtMotional["L6"], Format: "%.1f"},
		{Name: "Grid", Values: f.SqrtMotional["G2x3"], Format: "%.1f"},
	}))
	gain := bestFidelityGain(f.Fidelity["G2x3"]["SquareRoot"], f.Fidelity["L6"]["SquareRoot"])
	fmt.Fprintf(&b, "\nSquareRoot grid-over-linear fidelity gain: up to %.0fx (paper: up to 7000x)\n", gain)
	gainQFT := bestFidelityGain(f.Fidelity["L6"]["QFT"], f.Fidelity["G2x3"]["QFT"])
	fmt.Fprintf(&b, "QFT linear-over-grid fidelity gain: up to %.1fx (paper: up to 4x)\n", gainQFT)
	return b.String()
}

// bestFidelityGain returns the maximum pointwise ratio a/b over the sweep.
func bestFidelityGain(a, b []float64) float64 {
	best := 0.0
	for i := range a {
		if i < len(b) && b[i] > 0 && a[i] == a[i] && b[i] == b[i] {
			if r := a[i] / b[i]; r > best {
				best = r
			}
		}
	}
	return best
}

// Combo is one microarchitecture point of Figure 8.
type Combo struct {
	Gate    models.GateImpl
	Reorder models.ReorderMethod
}

// Label renders "FM-GS" style names.
func (c Combo) Label() string { return c.Gate.String() + "-" + c.Reorder.String() }

// PaperCombos lists the eight Figure 8 microarchitecture combinations.
func PaperCombos() []Combo {
	var cs []Combo
	for _, g := range models.GateImpls() {
		for _, m := range models.ReorderMethods() {
			cs = append(cs, Combo{Gate: g, Reorder: m})
		}
	}
	return cs
}

// Fig8 holds the microarchitecture study of §X on the linear device.
type Fig8 struct {
	Capacities []int
	Combos     []Combo
	// Fidelity and Time map app name then combo label to series:
	// panels (a)-(f) and (g)-(l).
	Fidelity map[string]map[string][]float64
	Time     map[string]map[string][]float64
	Outcomes map[string]map[string][]core.Outcome
	evaluated
}

// RunFig8 executes the Figure 8 sweep (48 series: 6 apps x 8 combos) on
// tf, reusing any outcomes its cache already holds. Each (app, capacity,
// reorder) program is compiled once for its four gate implementations.
// Failed design points hold NaN in every series and are reported by
// Failures.
func RunFig8(tf *core.Toolflow) (*Fig8, error) {
	space := PaperSpace()
	space.Topologies = []string{"L6"}
	outs, err := evaluate(tf, space)
	if err != nil {
		return nil, err
	}
	f := &Fig8{
		Capacities: space.Capacities,
		Combos:     PaperCombos(),
		Fidelity:   map[string]map[string][]float64{},
		Time:       map[string]map[string][]float64{},
		Outcomes:   map[string]map[string][]core.Outcome{},
		evaluated:  outs,
	}
	for _, app := range space.Apps {
		f.Fidelity[app] = map[string][]float64{}
		f.Time[app] = map[string][]float64{}
		f.Outcomes[app] = map[string][]core.Outcome{}
	}
	for _, o := range outs {
		label := Combo{Gate: o.Point.Gate, Reorder: o.Point.Reorder}.Label()
		byCombo := f.Outcomes[o.Point.App]
		byCombo[label] = append(byCombo[label], o)
	}
	for _, app := range space.Apps {
		for _, combo := range f.Combos {
			outs := f.Outcomes[app][combo.Label()]
			f.Fidelity[app][combo.Label()] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.Fidelity })
			f.Time[app][combo.Label()] = seriesOf(outs, func(o *core.Outcome) float64 { return o.Result.TotalSeconds() })
		}
	}
	return f, nil
}

// Render prints all Figure 8 panels as text tables.
func (f *Fig8) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: Microarchitecture choices (L6): 4 gate implementations x 2 reorder methods\n\n")
	for _, app := range PaperApps {
		var fid, tim []Series
		for _, combo := range f.Combos {
			fid = append(fid, Series{Name: combo.Label(), Values: f.Fidelity[app][combo.Label()], Format: "%.2e"})
			tim = append(tim, Series{Name: combo.Label(), Values: f.Time[app][combo.Label()], Format: "%.3f"})
		}
		b.WriteString(Table(app+" fidelity", "cap", f.Capacities, fid))
		b.WriteString("\n")
		b.WriteString(Table(app+" time (s)", "cap", f.Capacities, tim))
		b.WriteString("\n")
	}
	return b.String()
}

// Table1 renders the paper's Table I from the model constants.
func Table1(p models.Params) string {
	return "Table I: Shuttling operation times\n" + p.TableI()
}

// Table2 builds the benchmark suite and renders the paper's Table II with
// measured gate counts and classified communication patterns.
func Table2() (string, error) {
	var b strings.Builder
	b.WriteString("Table II: Applications (paper reference vs generated)\n")
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s  %-26s %s\n",
		"Application", "Qubits", "Qubits", "2Q", "2Q", "Paper pattern", "Measured pattern")
	fmt.Fprintf(&b, "%-12s %10s %10s %9s %9s\n", "", "(paper)", "(ours)", "(paper)", "(ours)")
	for _, spec := range apps.Suite() {
		c, err := spec.Build()
		if err != nil {
			return "", err
		}
		st := circuit.ComputeStats(c)
		fmt.Fprintf(&b, "%-12s %10d %10d %9d %9d  %-26s %s\n",
			spec.Name, spec.PaperQubits, st.Qubits, spec.PaperGate2Q, st.Gate2Q,
			spec.PaperPattern, st.Pattern)
	}
	return b.String(), nil
}
