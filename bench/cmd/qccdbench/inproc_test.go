package main

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/models"
	"repro/internal/service"
	"repro/internal/sweep"
)

// smallSweep is a cheap two-request sweep workload, the second request
// under another calibration.
func smallSweep(t *testing.T) *inputs {
	t.Helper()
	space := &sweep.Space{
		Apps:       []string{"BV@8", "QAOA@8"},
		Topologies: []string{"L2", "G2x2"},
		Capacities: []int{10, 14},
		Policies:   []string{"baseline", "lookahead"},
	}
	p := models.Default()
	p.PhotonicLinkLatency = 500
	in, err := sweepInputs([]service.SweepRequest{{Space: space}, {Space: space, Params: &p}})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestInprocReplays runs the untraced, traced and reconciling replays of a
// small sweep workload and a small single-point workload, as the traced
// run does, and checks their rows agree and every per-layer metric comes
// out.
func TestInprocReplays(t *testing.T) {
	spec := testSpec(t)
	sweepW := &workload{name: "sweep", clients: 1, computes: 1}
	in := smallSweep(t)
	runW := &workload{name: "run", clients: 2, computes: 1}
	runIn := &inputs{points: in.points[:4], refs: make([][]byte, 4)}
	for _, k := range []int{0, 1, 2, 3, 1, 0, 3} {
		var pt json.RawMessage = in.points[k]
		runIn.reqs = append(runIn.reqs, request{body: mustJSON(t, map[string]any{"point": pt}), rows: 1, key: k})
	}
	for _, tc := range []struct {
		w  *workload
		in *inputs
	}{{sweepW, in}, {runW, runIn}} {
		t.Run(tc.w.name, func(t *testing.T) {
			chk := newChecker(tc.in, tc.w.computes)
			replay := func(rec *recorder, reconcile bool) (*inproc, repOut) {
				e, err := newInproc(tc.w, t.TempDir(), rec, reconcile)
				if err != nil {
					t.Fatal(err)
				}
				out, err := drive(e, tc.w, tc.in, chk)
				if err != nil {
					t.Fatal(err)
				}
				return e, out
			}
			_, plain := replay(nil, false)
			traced, tr := replay(newRecorder(), false)
			recon, _ := replay(newRecorder(), true)
			if chk.nProblem != 0 {
				t.Fatalf("replays disagree: %v", chk.problems)
			}
			var err error
			if recon.sums.compileAllocs, recon.sums.simAllocs, err = recon.countAllocs(); err != nil || recon.rederiveErr != nil {
				t.Fatalf("re-derive: %v, %v", err, recon.rederiveErr)
			}
			m := layerMetrics(traced, recon, tr.wall, plain.wall, plain.wall)
			if len(m) != len(spec.PerLayer) {
				t.Errorf("layerMetrics reports %d metrics, BENCHMARK.json lists %d", len(m), len(spec.PerLayer))
			}
			for _, d := range spec.PerLayer {
				if v, ok := m[d.Name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, %v", d.Name, v, ok)
				}
			}
			if got, want := m["compiler.Compile.calls"], float64(len(tc.in.points)); got != want {
				t.Errorf("compiler.Compile.calls = %v, want one per point, %v", got, want)
			}
			if m["compiler.Compile.allocs_per_call"] <= 0 || m["sim.Run.allocs_per_call"] <= 0 {
				t.Errorf("allocation counts missing: %v, %v", m["compiler.Compile.allocs_per_call"], m["sim.Run.allocs_per_call"])
			}
		})
	}
}
