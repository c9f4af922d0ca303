package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// series returns n values alternating around base by ±jitter, scaled.
func series(n int, base, jitter float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		d := jitter * float64(i%3-1)
		out[i] = base + d
	}
	return out
}

func TestJudge(t *testing.T) {
	for _, tc := range []struct {
		name           string
		parent, change []float64
		higherBetter   bool
		bound          float64
		want           string
	}{
		{"throughput up 20%", series(10, 100, 1), series(10, 120, 1), true, 0.1, "better"},
		{"latency down 20%", series(10, 100, 1), series(10, 80, 1), false, 0.1, "better"},
		{"throughput down 20%", series(10, 100, 1), series(10, 80, 1), true, 0.1, "worse"},
		{"latency up 5% within the bound", series(10, 100, 1), series(10, 105, 1), false, 0.1, "unchanged"},
		{"gain on fewer than ten pairs", series(9, 100, 1), series(9, 120, 1), true, 0.1, "unchanged"},
		{"spread wider than the bound", series(10, 100, 30), series(10, 98, 30), true, 0.1, "unresolved"},
		{"wide spread but every change run better", series(10, 100, 30), series(10, 200, 30), true, 0.1, "better"},
	} {
		if got := judge(tc.parent, tc.change, tc.higherBetter, tc.bound); got.verdict != tc.want {
			t.Errorf("%s: verdict %q, want %q (%+v)", tc.name, got.verdict, tc.want, got)
		}
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	spec := &benchSpec{
		Workloads: []struct {
			Name string `json:"name"`
		}{{"paper-grid-cold"}},
		EndToEnd: []metricSpec{
			{Name: "points_per_s", Unit: "points/s", Better: "higher", Bound: 0.1},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		},
	}
	t0 := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	// write saves one side's runs; run i starts at minute starts[i].
	write := func(name string, pps []float64, starts []int) string {
		var recs []runRecord
		for i, v := range pps {
			recs = append(recs, runRecord{Seed: int64(i), Started: t0.Add(time.Duration(starts[i]) * time.Minute),
				Workloads: map[string]*workloadRecord{
					"paper-grid-cold": {Metrics: map[string]metricRecord{
						"points_per_s": {Value: v, Unit: "points/s"},
						"setup_s":      {Value: 0.004, Unit: "s"},
					}},
				}})
		}
		raw, _ := json.Marshal(recs)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// Pair i runs at minutes 2i and 2i+1, alternating which side goes first.
	first, second := make([]int, 10), make([]int, 10)
	for i := range first {
		first[i], second[i] = 2*i+i%2, 2*i+1-i%2
	}
	parent := write("parent.json", series(10, 700, 5), first)
	var out bytes.Buffer
	code, err := runCompare(parent, write("slower.json", series(10, 560, 5), second), spec, &out)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% throughput loss: exit %d, output:\n%s", code, out.String())
	}
	out.Reset()
	code, err = runCompare(parent, write("faster.json", series(10, 840, 5), second), spec, &out)
	if err != nil || code != 0 {
		t.Fatalf("exit %d, %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 || !strings.HasSuffix(lines[1], "better") || !strings.HasSuffix(lines[2], "unchanged") {
		t.Errorf("a 20%% throughput gain at equal set-up time:\n%s", out.String())
	}

	// All parent runs before all change runs are not back-to-back pairs.
	later := make([]int, 10)
	for i := range later {
		later[i] = 100 + i
	}
	if _, err := runCompare(parent, write("later.json", series(10, 840, 5), later), spec, &out); err == nil {
		t.Error("runCompare paired runs that did not run back to back")
	}
	if _, err := runCompare(parent, write("fewer.json", series(9, 840, 5), second[:9]), spec, &out); err == nil {
		t.Error("runCompare accepted a parent run without a change run")
	}
}
