// Package experiments regenerates every table and figure of the paper's
// evaluation (§VIII-§X): Table I (operation times), Table II (workload
// characteristics), Figure 6 (trap sizing on L6), Figure 7 (linear vs grid
// topology) and Figure 8 (gate implementation × chain reordering
// microarchitecture study), plus beyond-the-paper studies of device
// scaling, surface-code QEC, compiler policies and multi-module devices.
// Each study declares its design points as sweep grammars, streams them
// through the caller's toolflow and renders the series the paper plots.
package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// PaperCapacities is the trap-capacity sweep of Figures 6-8.
var PaperCapacities = []int{14, 18, 22, 26, 30, 34}

// PaperTopologies are the two device topologies the evaluation compares.
var PaperTopologies = []string{"L6", "G2x3"}

// PaperSpace expresses the paper's full 576-point evaluation grid — the
// union of the Figure 6-8 sweeps extended to the complete app × topology
// × capacity × gate × reorder cross product — as a sweep grammar. Its
// lazy expansion enumerates exactly the golden determinism grid, in the
// same order (pinned by TestPaperSpaceMatchesGoldenGrid), so the whole
// paper evaluation can be reproduced server-side with one small request
// instead of a materialized point list.
func PaperSpace() sweep.Space {
	var gates, reorders []string
	for _, g := range models.GateImpls() {
		gates = append(gates, g.String())
	}
	for _, r := range models.ReorderMethods() {
		reorders = append(reorders, r.String())
	}
	return sweep.Space{
		Apps:       PaperApps,
		Topologies: PaperTopologies,
		Capacities: PaperCapacities,
		Gates:      gates,
		Reorders:   reorders,
	}
}

// evaluated is every design point a study evaluated, in grammar order.
// Each study embeds it. A failed point does not abort the study: it
// renders as NaN and is reported by Failures, so callers can summarize
// failures and exit nonzero.
type evaluated []core.Outcome

// Failures returns the failed design points, in grammar order.
func (e evaluated) Failures() []core.Outcome {
	var fails []core.Outcome
	for _, o := range e {
		if o.Err != nil {
			fails = append(fails, o)
		}
	}
	return fails
}

// evaluate compiles a study's grammars, expands them into one list, one
// grammar after another, and sweeps it through tf, returning every
// outcome in that order. Gate siblings share one compiled program, as in
// any stream (see core.Toolflow.Stream), and small grammars, such as the
// scaling study's one per size, run side by side.
func evaluate(tf *core.Toolflow, spaces ...sweep.Space) (evaluated, error) {
	var points []core.Point
	for _, s := range spaces {
		g, err := s.Compile()
		if err != nil {
			return nil, err
		}
		for i := range g.Size() {
			points = append(points, g.PointAt(i))
		}
	}
	return tf.Sweep(points), nil
}

// studyCapacity is the per-trap ion limit of the sized studies (scaling,
// QEC and TITAN): the paper's recommended ~20-25 ions (§IX.A).
const studyCapacity = 22

// sized is a device grown to hold a workload at studyCapacity.
type sized struct {
	spec  string
	traps int
}

// grow returns the device with rows rows of traps per module, in modules
// photonically linked modules, whose rows are just long enough to hold n
// qubits at studyCapacity with the mapper's two buffer slots per trap,
// and at least two traps long. One row is a linear device, more a grid.
func grow(n, rows, modules int) sized {
	perCol := rows * modules * (studyCapacity - 2) // qubits per trap column
	cols := max(2, (n+perCol-1)/perCol)
	spec := fmt.Sprintf("G%dx%d", rows, cols)
	if rows == 1 {
		spec = fmt.Sprintf("L%d", cols)
	}
	if modules > 1 {
		spec = fmt.Sprintf("Mod%d:%s", modules, spec)
	}
	return sized{spec, rows * modules * cols}
}

// sizedSpace is the grammar of apps on devs at studyCapacity with gate
// and GS reordering.
func sizedSpace(gate models.GateImpl, apps []string, devs []sized) sweep.Space {
	s := sweep.Space{Apps: apps, Capacities: []int{studyCapacity}, Gates: []string{gate.String()}}
	for _, d := range devs {
		s.Topologies = append(s.Topologies, d.spec)
	}
	return s
}
