package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/models"
)

// PolicyComparison is the compiler-policy study, the figure the ROADMAP's
// pluggable-policy item asks for: every compiler policy run over the
// paper's app × topology × capacity grid (FM gates, GS reordering),
// so the alternative heuristics — lookahead gate ordering, congestion-
// aware routing — are scored on exactly the workloads the baseline was
// tuned for. Per (app, topology) cell it reports which policy wins on
// fidelity and which on makespan, the first step of the policy-search
// direction (Schoenberger et al., PAPERS.md).
type PolicyComparison struct {
	// Policies lists the compared policies, baseline first.
	Policies []models.PolicyName
	// Rows holds one entry per (app, topology, capacity) configuration.
	Rows []PolicyRow
	evaluated
}

// PolicyRow is one grid configuration evaluated under every policy.
type PolicyRow struct {
	App      string
	Topology string
	Capacity int
	// Outcomes is parallel to PolicyComparison.Policies.
	Outcomes []core.Outcome
}

// PolicyCell aggregates one (app, topology) cell across the capacity
// sweep: per-policy mean log-fidelity and mean makespan, and the winning
// policy on each metric.
type PolicyCell struct {
	App      string
	Topology string
	// MeanLogFid and MeanTimeS are parallel to Policies; NaN when every
	// capacity point of a policy failed.
	MeanLogFid []float64
	MeanTimeS  []float64
	// BestFidelity and BestMakespan index into Policies (-1 if the whole
	// cell failed). Ties go to the earliest policy, so the baseline wins
	// exact draws.
	BestFidelity int
	BestMakespan int
}

// RunPolicyComparison executes the policy study on tf: Figure 7's
// grammar with every compiler policy as its innermost axis.
// Failed points are recorded in their rows and reported via Failures,
// never aborting the rest of the sweep. Baseline points are shared with
// the other paper figures through tf's outcome cache (their cache keys
// are identical to pre-policy points).
func RunPolicyComparison(tf *core.Toolflow) (*PolicyComparison, error) {
	space := fig7Space()
	for _, info := range models.Policies() {
		space.Policies = append(space.Policies, info.Name)
	}
	outs, err := evaluate(tf, space)
	if err != nil {
		return nil, err
	}
	p := &PolicyComparison{evaluated: outs}
	n := len(space.Policies)
	for _, o := range outs[:n] {
		p.Policies = append(p.Policies, o.Point.Policy)
	}
	for i := 0; i < len(outs); i += n {
		pt := outs[i].Point
		p.Rows = append(p.Rows, PolicyRow{
			App: pt.App, Topology: pt.Topology, Capacity: pt.Capacity,
			Outcomes: outs[i : i+n],
		})
	}
	return p, nil
}

// Cells aggregates the rows into (app, topology) cells, averaging each
// policy's log-fidelity and makespan over the capacity sweep.
func (p *PolicyComparison) Cells() []PolicyCell {
	var cells []PolicyCell
	for _, app := range PaperApps {
		for _, topo := range PaperTopologies {
			cell := PolicyCell{
				App: app, Topology: topo,
				MeanLogFid:   make([]float64, len(p.Policies)),
				MeanTimeS:    make([]float64, len(p.Policies)),
				BestFidelity: -1, BestMakespan: -1,
			}
			counts := make([]int, len(p.Policies))
			for _, row := range p.Rows {
				if row.App != app || row.Topology != topo {
					continue
				}
				for i, o := range row.Outcomes {
					if o.Err != nil || o.Result == nil {
						continue
					}
					cell.MeanLogFid[i] += o.Result.LogFidelity
					cell.MeanTimeS[i] += o.Result.TotalSeconds()
					counts[i]++
				}
			}
			for i, n := range counts {
				if n == 0 {
					cell.MeanLogFid[i] = math.NaN()
					cell.MeanTimeS[i] = math.NaN()
					continue
				}
				cell.MeanLogFid[i] /= float64(n)
				cell.MeanTimeS[i] /= float64(n)
				if cell.BestFidelity < 0 || cell.MeanLogFid[i] > cell.MeanLogFid[cell.BestFidelity] {
					cell.BestFidelity = i
				}
				if cell.BestMakespan < 0 || cell.MeanTimeS[i] < cell.MeanTimeS[cell.BestMakespan] {
					cell.BestMakespan = i
				}
			}
			cells = append(cells, cell)
		}
	}
	return cells
}

// NonBaselineWins counts the (app, topology) cells where a non-baseline
// policy strictly beats the baseline on fidelity or on makespan.
func (p *PolicyComparison) NonBaselineWins() int {
	wins := 0
	for _, c := range p.Cells() {
		if (c.BestFidelity > 0) || (c.BestMakespan > 0) {
			wins++
		}
	}
	return wins
}

// Render prints the policy study: per (app, topology) cell, each policy's
// mean fidelity and makespan over the capacity sweep, with the winners
// marked.
func (p *PolicyComparison) Render() string {
	var b strings.Builder
	b.WriteString("Extension: compiler policy comparison over the paper grid (FM, GS)\n")
	fmt.Fprintf(&b, "%-11s %-7s", "app", "device")
	for _, pol := range p.Policies {
		fmt.Fprintf(&b, " %16s", pol.String())
	}
	b.WriteString("   winner(fid)   winner(time)\n")
	for _, c := range p.Cells() {
		fmt.Fprintf(&b, "%-11s %-7s", c.App, c.Topology)
		for i := range p.Policies {
			fmt.Fprintf(&b, " %8.3f/%6.4fs", c.MeanLogFid[i], c.MeanTimeS[i])
		}
		fidWin, timeWin := "-", "-"
		if c.BestFidelity >= 0 {
			fidWin = p.Policies[c.BestFidelity].String()
		}
		if c.BestMakespan >= 0 {
			timeWin = p.Policies[c.BestMakespan].String()
		}
		fmt.Fprintf(&b, "   %-11s   %s\n", fidWin, timeWin)
	}
	fmt.Fprintf(&b, "\nCells are mean log-fidelity / mean makespan over capacities %v.\n", PaperCapacities)
	fmt.Fprintf(&b, "Non-baseline policies win %d of %d cells on at least one metric;\n",
		p.NonBaselineWins(), len(p.Cells()))
	b.WriteString("the policy axis is sweepable server-side (POST /v1/sweep, \"policies\").\n")
	return b.String()
}

// WriteCSV emits every (app, topology, capacity, policy) point in long
// format.
func (p *PolicyComparison) WriteCSV(w io.Writer) error {
	header := []string{"app", "device", "capacity", "policy",
		"log_fidelity", "fidelity", "time_s", "splits", "max_energy_quanta"}
	var rows [][]string
	for _, row := range p.Rows {
		for i, o := range row.Outcomes {
			logFid, fid, timeS, splits, maxE := math.NaN(), math.NaN(), math.NaN(), -1, math.NaN()
			if o.Err == nil && o.Result != nil {
				logFid, fid, timeS = o.Result.LogFidelity, o.Result.Fidelity, o.Result.TotalSeconds()
				splits = o.Result.Splits
				maxE = o.Result.MaxMotionalEnergy
			}
			rows = append(rows, []string{
				row.App, row.Topology, fmt.Sprint(row.Capacity), p.Policies[i].String(),
				fmt.Sprintf("%.6f", logFid),
				fmt.Sprintf("%.6e", fid),
				fmt.Sprintf("%.6f", timeS),
				fmt.Sprint(splits),
				fmt.Sprintf("%.3f", maxE),
			})
		}
	}
	return writeCSV(w, header, rows)
}
