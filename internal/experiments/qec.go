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

// QEC is the surface-code workload study, the figure family the ROADMAP's
// "QEC workloads and logical-error metrics" item asks for: Surface@d
// syndrome-extraction circuits (d rounds, 2d²−1 qubits) on linear and
// grid devices sized to hold them, reporting the physical error rate the
// discrete-event simulation produces and the logical-error estimate it
// implies. The distance-9 instance runs 161 qubits, far past a dense
// state vector's reach; the study simulates no quantum state, since the
// timing simulator scores every point by its fidelity product.
type QEC struct {
	Rows []QECRow
	evaluated
}

// QECRow is one surface-code design point.
type QECRow struct {
	Distance int
	Qubits   int
	Rounds   int
	Topology string
	Traps    int
	Capacity int
	Outcome  core.Outcome
}

// Result returns the simulation result, or nil for a failed point.
func (r QECRow) Result() *sim.Result { return r.Outcome.Result }

// qecDistances is the code-distance grid of the study.
var qecDistances = []int{3, 5, 7, 9}

// qecStudy returns the study's grammars, one per distance: Surface@d on
// linear and 2-row grid devices grown to hold it. It also returns the
// rows, in grammar order, with their outcomes still empty.
func qecStudy(gate models.GateImpl) ([]sweep.Space, []QECRow) {
	var spaces []sweep.Space
	var rows []QECRow
	for _, d := range qecDistances {
		n := 2*d*d - 1
		devs := []sized{grow(n, 1, 1), grow(n, 2, 1)}
		spaces = append(spaces, sizedSpace(gate, []string{fmt.Sprintf("Surface@%d", d)}, devs))
		for _, dev := range devs {
			rows = append(rows, QECRow{
				Distance: d, Qubits: n, Rounds: d,
				Topology: dev.spec, Traps: dev.traps, Capacity: studyCapacity,
			})
		}
	}
	return spaces, rows
}

// RunQEC executes the surface-code study on tf. All distances stream
// through one worker pool.
func RunQEC(tf *core.Toolflow) (*QEC, error) {
	spaces, rows := qecStudy(tf.Params().Gate)
	outs, err := evaluate(tf, spaces...)
	if err != nil {
		return nil, err
	}
	for i := range rows {
		rows[i].Outcome = outs[i]
	}
	return &QEC{Rows: rows, evaluated: outs}, nil
}

// qecRowMetrics extracts the rendered metrics, NaN for a failed row.
func qecRowMetrics(r QECRow) (timeS, pPhys, pLogical, maxE float64) {
	if res := r.Result(); res != nil {
		return res.TotalSeconds(), res.PhysicalErrorRate(), res.LogicalErrorRate, res.MaxMotionalEnergy
	}
	nan := math.NaN()
	return nan, nan, nan, nan
}

// Render prints the QEC study as a table.
func (q *QEC) Render() string {
	var b strings.Builder
	b.WriteString("Extension: surface-code syndrome extraction, d rounds at distance d\n")
	fmt.Fprintf(&b, "%-4s %7s %7s %-7s %6s %10s %12s %12s %8s\n",
		"d", "qubits", "rounds", "device", "traps", "time(s)", "p_phys", "p_logical", "maxE")
	for _, r := range q.Rows {
		timeS, pPhys, pLog, maxE := qecRowMetrics(r)
		fmt.Fprintf(&b, "%-4d %7d %7d %-7s %6d %10.4f %12.3e %12.3e %8.1f\n",
			r.Distance, r.Qubits, r.Rounds, r.Topology, r.Traps, timeS, pPhys, pLog, maxE)
	}
	b.WriteString("\nThe logical-error column applies the surface-code threshold ansatz to the\n")
	b.WriteString("physical error rate the QCCD simulation produces. Where p_phys sits below\n")
	b.WriteString("threshold, growing d suppresses p_logical exponentially; where shuttling\n")
	b.WriteString("overheads push p_phys above threshold, larger patches only add exposure —\n")
	b.WriteString("making the trap-capacity and topology choices of the paper's study the\n")
	b.WriteString("direct lever on fault-tolerance viability (Jones 2025, PAPERS.md).\n")
	return b.String()
}

// WriteCSV emits the QEC rows in long format.
func (q *QEC) WriteCSV(w io.Writer) error {
	header := []string{"distance", "qubits", "rounds", "device", "traps", "capacity",
		"time_s", "p_phys", "p_logical", "max_energy_quanta"}
	var rows [][]string
	for _, r := range q.Rows {
		timeS, pPhys, pLog, maxE := qecRowMetrics(r)
		rows = append(rows, []string{
			fmt.Sprint(r.Distance), fmt.Sprint(r.Qubits), fmt.Sprint(r.Rounds),
			r.Topology, fmt.Sprint(r.Traps), fmt.Sprint(r.Capacity),
			fmt.Sprintf("%.6f", timeS),
			fmt.Sprintf("%.6e", pPhys),
			fmt.Sprintf("%.6e", pLog),
			fmt.Sprintf("%.3f", maxE),
		})
	}
	return writeCSV(w, header, rows)
}
