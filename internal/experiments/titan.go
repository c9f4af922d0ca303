package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// Titan is the TITAN-scale multi-module study: one large workload run on
// k photonically linked QCCD modules, sweeping the module count against
// the optical interconnect latency. A single monolithic QCCD chip stalls
// in the hundreds of qubits (§VIII.B); the study quantifies what the
// distributed alternative (PAPERS.md) costs — every cross-module hop pays
// the remote-entanglement latency and teleportation infidelity — and how
// sharply that cost turns on link quality.
type Titan struct {
	// App and Qubits identify the workload (a sized suite instance).
	App    string
	Qubits int
	// Latencies is the photonic link latency axis (µs).
	Latencies []float64
	// Rows holds one entry per (module count, latency) cell.
	Rows []TitanRow
	evaluated
}

// TitanRow is one (module count, link latency) cell of the study.
type TitanRow struct {
	Modules  int
	Topology string
	Traps    int
	Capacity int
	// LinkLatencyUS is the photonic link latency of this cell (µs).
	LinkLatencyUS float64
	// Outcome is the raw design-point outcome; a failed point carries its
	// error and renders as NaN, like the figure sweeps.
	Outcome core.Outcome
}

// Result returns the simulation result, or nil for a failed point.
func (r TitanRow) Result() *sim.Result { return r.Outcome.Result }

// titanApp is the study workload: QFT's all-to-all gate pattern maximizes
// cross-module traffic, so it bounds the interconnect's impact from above.
const (
	titanApp    = "QFT"
	titanQubits = 512
)

// titanModules and titanLatencies are the two study axes. The latency
// axis brackets the published remote-entanglement operating points: an
// optimistic 100µs, the ~300µs default, and a pessimistic 1ms.
var (
	titanModules   = []int{2, 3, 4}
	titanLatencies = []float64{100, 300, 1000}
)

// titanStudy returns the study's grammar: the workload on grid modules
// grown to hold it, one device per module count. It also returns the
// devices, in grammar order.
func titanStudy(gate models.GateImpl) (sweep.Space, []sized) {
	var devs []sized
	for _, k := range titanModules {
		devs = append(devs, grow(titanQubits, 2, k))
	}
	return sizedSpace(gate, []string{fmt.Sprintf("%s@%d", titanApp, titanQubits)}, devs), devs
}

// RunTitan executes the TITAN-scale study on tf. The link latency is a
// physical parameter, not a design-point axis, so the study runs its
// grammar once per latency under that calibration of tf (see
// core.Toolflow.WithParams), which shares tf's outcome cache and circuits.
func RunTitan(tf *core.Toolflow) (*Titan, error) {
	space, devs := titanStudy(tf.Params().Gate)
	t := &Titan{App: titanApp, Qubits: titanQubits, Latencies: titanLatencies}
	for _, lat := range titanLatencies {
		params := tf.Params()
		params.PhotonicLinkLatency = lat
		outs, err := evaluate(tf.WithParams(params), space)
		if err != nil {
			return nil, err
		}
		for i, d := range devs {
			t.Rows = append(t.Rows, TitanRow{
				Modules: titanModules[i], Topology: d.spec, Traps: d.traps,
				Capacity: studyCapacity, LinkLatencyUS: lat, Outcome: outs[i],
			})
		}
		t.evaluated = append(t.evaluated, outs...)
	}
	return t, nil
}

// titanMetrics extracts the rendered metrics, NaN for a failed row.
func titanMetrics(r TitanRow) (timeS, fid, logFid float64, links int) {
	if res := r.Result(); res != nil {
		return res.TotalSeconds(), res.Fidelity, res.LogFidelity, res.LinkTransits
	}
	nan := math.NaN()
	return nan, nan, nan, 0
}

// Render prints the study as a module-count × link-latency table.
func (t *Titan) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: TITAN-scale multi-module study (%s@%d, capacity %d)\n",
		t.App, t.Qubits, studyCapacity)
	fmt.Fprintf(&b, "%-8s %-10s %6s %12s %10s %12s %12s %7s\n",
		"modules", "device", "traps", "link(µs)", "time(s)", "fidelity", "log-fid", "links")
	for _, r := range t.Rows {
		timeS, fid, logFid, links := titanMetrics(r)
		fmt.Fprintf(&b, "%-8d %-10s %6d %12.0f %10.4f %12.3e %12.1f %7d\n",
			r.Modules, r.Topology, r.Traps, r.LinkLatencyUS, timeS, fid, logFid, links)
	}
	b.WriteString("\nMore modules shorten in-module routes but multiply photonic crossings, so\n")
	b.WriteString("makespan degrades with both module count and link latency for this\n")
	b.WriteString("all-to-all workload: the interconnect, not the trap capacity, is the\n")
	b.WriteString("scaling bottleneck of a distributed QCCD machine. Fidelity tracks the\n")
	b.WriteString("link-transit count through the per-teleportation infidelity, independent\n")
	b.WriteString("of latency.\n")
	return b.String()
}

// WriteCSV emits the study rows in long format.
func (t *Titan) WriteCSV(w io.Writer) error {
	header := []string{"app", "qubits", "modules", "device", "traps", "capacity",
		"link_latency_us", "time_s", "fidelity", "log_fidelity", "link_transits"}
	var rows [][]string
	for _, r := range t.Rows {
		timeS, fid, logFid, links := titanMetrics(r)
		rows = append(rows, []string{
			t.App, fmt.Sprint(t.Qubits), fmt.Sprint(r.Modules), r.Topology,
			fmt.Sprint(r.Traps), fmt.Sprint(r.Capacity),
			fmt.Sprintf("%.0f", r.LinkLatencyUS),
			fmt.Sprintf("%.6f", timeS),
			fmt.Sprintf("%.6e", fid),
			fmt.Sprintf("%.4f", logFid),
			fmt.Sprint(links),
		})
	}
	return writeCSV(w, header, rows)
}
