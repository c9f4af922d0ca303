package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/models"
)

func TestRunQEC(t *testing.T) {
	q, err := RunQEC(core.NewCached(models.Default(), 0))
	if err != nil {
		t.Fatal(err)
	}
	if want := 2 * len(qecDistances); len(q.Rows) != want {
		t.Fatalf("%d rows, want %d", len(q.Rows), want)
	}
	if fails := q.Failures(); len(fails) != 0 {
		t.Fatalf("failed points: %v", fails)
	}
	for _, row := range q.Rows {
		res := row.Result()
		if res == nil {
			t.Fatalf("d=%d %s: nil result", row.Distance, row.Topology)
		}
		if row.Qubits != 2*row.Distance*row.Distance-1 {
			t.Errorf("d=%d: %d qubits, want %d", row.Distance, row.Qubits, 2*row.Distance*row.Distance-1)
		}
		if res.CodeDistance != row.Distance || res.QECRounds != row.Rounds {
			t.Errorf("d=%d: result QEC fields d=%d rounds=%d", row.Distance, res.CodeDistance, res.QECRounds)
		}
		if res.LogicalErrorRate <= 0 || res.LogicalErrorRate > 0.5 {
			t.Errorf("d=%d %s: logical error rate %v outside (0, 0.5]",
				row.Distance, row.Topology, res.LogicalErrorRate)
		}
	}

	out := q.Render()
	for _, want := range []string{"p_logical", "161", "surface-code"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q", want)
		}
	}
	var csv bytes.Buffer
	if err := q.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != len(q.Rows)+1 {
		t.Errorf("CSV has %d lines, want %d", lines, len(q.Rows)+1)
	}
}
