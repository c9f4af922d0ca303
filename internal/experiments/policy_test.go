package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func TestPolicyComparisonShapeAndWins(t *testing.T) {
	pc, err := RunPolicyComparison(core.NewCached(models.Default(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(pc.Policies) < 3 {
		t.Fatalf("policies = %v, want at least baseline+lookahead+congestion", pc.Policies)
	}
	if !pc.Policies[0].IsBaseline() {
		t.Fatalf("first policy = %q, want baseline", pc.Policies[0])
	}
	wantRows := len(PaperApps) * len(PaperTopologies) * len(PaperCapacities)
	if len(pc.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(pc.Rows), wantRows)
	}
	for _, row := range pc.Rows {
		if len(row.Outcomes) != len(pc.Policies) {
			t.Fatalf("row %s/%s/%d has %d outcomes, want %d",
				row.App, row.Topology, row.Capacity, len(row.Outcomes), len(pc.Policies))
		}
		for i, o := range row.Outcomes {
			if o.Err != nil {
				t.Errorf("%s under %s: %v", o.Point, pc.Policies[i], o.Err)
			}
		}
	}
	if fails := pc.Failures(); len(fails) != 0 {
		t.Fatalf("failures = %d", len(fails))
	}

	cells := pc.Cells()
	if len(cells) != len(PaperApps)*len(PaperTopologies) {
		t.Fatalf("cells = %d", len(cells))
	}
	// The headline claim of the study: at least one (app, topology) cell
	// where an alternative policy strictly beats the baseline on fidelity
	// or makespan. (Ties resolve to the baseline, so a win is strict.)
	if pc.NonBaselineWins() < 1 {
		t.Error("no cell won by a non-baseline policy; alternatives are useless as configured")
	}

	render := pc.Render()
	for _, want := range []string{"baseline", "lookahead", "congestion", "winner(fid)"} {
		if !strings.Contains(render, want) {
			t.Errorf("render missing %q", want)
		}
	}

	var csv bytes.Buffer
	if err := pc.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if want := wantRows*len(pc.Policies) + 1; len(lines) != want {
		t.Errorf("csv lines = %d, want %d", len(lines), want)
	}
	if !strings.HasPrefix(lines[0], "app,device,capacity,policy") {
		t.Errorf("csv header = %q", lines[0])
	}
}
