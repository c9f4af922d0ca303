package qccd

// Golden determinism test: every design point of the paper's evaluation
// grid (the union of the Figure 6-8 sweeps, extended to the full
// app × topology × capacity × gate × reorder cross product) must produce
// a bit-identical sim.Result. The golden file pins the behavior of the
// pre-optimization toolflow, so hot-path refactors of the compiler and
// simulator are proven behavior-preserving rather than claimed to be.
//
// Regenerate with:
//
//	go test -run TestGoldenDeterminism -update-golden .

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/models"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const goldenPath = "testdata/golden_results.json"

// goldenBeyondPath pins the scenarios the paper does not evaluate.
const goldenBeyondPath = "testdata/golden_beyond.json"

// goldenGrid enumerates the full paper grid in deterministic order.
func goldenGrid() []core.Point {
	var pts []core.Point
	for _, app := range experiments.PaperApps {
		for _, topo := range experiments.PaperTopologies {
			for _, capacity := range experiments.PaperCapacities {
				for _, gate := range models.GateImpls() {
					for _, reorder := range models.ReorderMethods() {
						pts = append(pts, core.Point{
							App: app, Topology: topo, Capacity: capacity,
							Gate: gate, Reorder: reorder,
						})
					}
				}
			}
		}
	}
	return pts
}

// goldenLine is the serialized outcome of one design point. Result uses
// sim.Result's stable JSON encoding; shortest-round-trip float encoding
// makes equality of encodings equality of the float64 bits.
type goldenLine struct {
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// computeGolden sweeps pts as a list and checks that it compiled one
// program per compile group: programs in all.
func computeGolden(t *testing.T, pts []core.Point, programs int) map[string]goldenLine {
	t.Helper()
	tf := core.New(DefaultParams())
	outs := tf.Sweep(pts)
	if n := int(tf.Compiles()); n != programs {
		t.Errorf("sweeping %d points compiled %d programs, want %d", len(pts), n, programs)
	}
	got := make(map[string]goldenLine, len(outs))
	for _, o := range outs {
		line := goldenLine{}
		if o.Err != nil {
			line.Error = o.Err.Error()
		} else {
			raw, err := json.Marshal(o.Result)
			if err != nil {
				t.Fatalf("marshal %s: %v", o.Point, err)
			}
			line.Result = raw
		}
		got[o.Point.String()] = line
	}
	return got
}

func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped in -short mode")
	}
	// 6 apps × 2 topologies × 6 capacities × 2 reorders: one program per
	// four gate siblings.
	checkGolden(t, goldenPath, goldenGrid(), 144)
}

// Beyond-paper coverage: one spec per topology family (including the
// 3-row grid, mesh, ring and two-module photonic device), three sized
// apps at 64 qubits (all-to-all QFT, QAOA's graph and SquareRoot's
// arithmetic) plus two surface-code workloads, both reordering methods
// and every compiler policy, at one capacity and two gate implementations
// (FM is the paper's pick; AM2 differs from it in both time and fidelity
// models). The 360 points cost less than the paper grid's 576.
var (
	beyondTopologies = []string{"L6", "G2x3", "G3x3", "M2x3", "R6", "Mod2:G2x2"}
	beyondApps       = []string{"QFT@64", "QAOA@64", "SquareRoot@64", "Surface@3", "Surface@5"}
	beyondPolicies   = []models.PolicyName{"", "lookahead", "congestion"}
	beyondGates      = []models.GateImpl{models.AM2, models.FM}
	beyondCapacity   = 22
	// beyondPrograms is one program per pair of gate siblings: 5 apps ×
	// 6 topologies × 3 policies × 2 reorders.
	beyondPrograms = 180
)

// beyondGrid enumerates the beyond-paper golden points in deterministic
// order.
func beyondGrid() []core.Point {
	var pts []core.Point
	for _, app := range beyondApps {
		for _, topo := range beyondTopologies {
			for _, policy := range beyondPolicies {
				for _, gate := range beyondGates {
					for _, reorder := range models.ReorderMethods() {
						pts = append(pts, core.Point{
							App: app, Topology: topo, Capacity: beyondCapacity,
							Gate: gate, Reorder: reorder, Policy: policy,
						})
					}
				}
			}
		}
	}
	return pts
}

// TestGoldenBeyondPaper pins, as tightly as the paper grid, the behaviour
// the paper does not evaluate: every topology family, sized and QEC
// workloads and the non-baseline compiler policies. Regenerate with
//
//	go test -run TestGoldenBeyondPaper -update-golden .
func TestGoldenBeyondPaper(t *testing.T) {
	if testing.Short() {
		t.Skip("beyond-paper grid; skipped in -short mode")
	}
	checkGolden(t, goldenBeyondPath, beyondGrid(), beyondPrograms)
}

// checkGolden computes every point of pts in programs compiles and
// compares the outcomes with the golden file at path, or rewrites the
// file under -update-golden. On divergence it dumps the computed outcomes
// into goldenDiffDir.
func checkGolden(t *testing.T, path string, pts []core.Point, programs int) {
	t.Helper()
	got := computeGolden(t, pts, programs)

	if *updateGolden {
		// json.MarshalIndent emits map keys in sorted order, so the golden
		// file is deterministic without any explicit ordering here.
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d points)", path, len(got))
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	var want map[string]goldenLine
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d points, grid has %d", len(want), len(got))
	}
	var diverged []string
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: in golden but not in grid", key)
			diverged = append(diverged, fmt.Sprintf("%s: in golden but not in grid", key))
			continue
		}
		if w.Error != g.Error {
			diverged = append(diverged, fmt.Sprintf("%s:\n got error: %q\nwant error: %q", key, g.Error, w.Error))
			if len(diverged) <= 5 {
				t.Errorf("%s: error %q, golden %q", key, g.Error, w.Error)
			}
			continue
		}
		if !equalJSON(w.Result, g.Result) {
			diverged = append(diverged, fmt.Sprintf("%s:\n got: %s\nwant: %s", key, g.Result, w.Result))
			if len(diverged) <= 5 {
				t.Errorf("%s: result diverged from golden\n got: %s\nwant: %s",
					key, g.Result, w.Result)
			}
		}
	}
	if len(diverged) > 5 {
		t.Errorf("... and %d more diverged points", len(diverged)-5)
	}
	if t.Failed() {
		writeGoldenDiff(t, path, got, diverged)
	}
}

// goldenDiffDir is where a failing determinism run dumps its evidence.
// CI uploads the directory as an artifact, so a diverging point can be
// diagnosed — and the golden file regenerated deliberately — without
// recomputing the full grid locally.
const goldenDiffDir = "golden-diff"

func writeGoldenDiff(t *testing.T, path string, got map[string]goldenLine, diverged []string) {
	t.Helper()
	if err := os.MkdirAll(goldenDiffDir, 0o755); err != nil {
		t.Logf("golden-diff: %v", err)
		return
	}
	// Prefix the dumps with the golden file's base name, so a run in
	// which both golden tests fail keeps both sets of evidence.
	prefix := strings.TrimSuffix(filepath.Base(path), ".json") + "_"
	raw, err := json.MarshalIndent(got, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(goldenDiffDir, prefix+"got.json"), append(raw, '\n'), 0o644)
	}
	if err != nil {
		t.Logf("golden-diff: %v", err)
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "%d design points diverged from %s\n\n", len(diverged), path)
	for _, d := range diverged {
		buf.WriteString(d)
		buf.WriteString("\n\n")
	}
	if err := os.WriteFile(filepath.Join(goldenDiffDir, prefix+"summary.txt"), buf.Bytes(), 0o644); err != nil {
		t.Logf("golden-diff: %v", err)
	}
	t.Logf("wrote %s/ (computed results + divergence summary)", goldenDiffDir)
}

// equalJSON compares two Result encodings ignoring whitespace (the golden
// file is indented). Numbers use Go's shortest-round-trip encoding, so
// textual equality of the compacted documents is float64 bit equality.
func equalJSON(a, b json.RawMessage) bool {
	// Both absent (two points failing with the same error) is equality;
	// json.Compact rejects empty input, so check before compacting.
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	var ca, cb bytes.Buffer
	if json.Compact(&ca, a) != nil || json.Compact(&cb, b) != nil {
		return false
	}
	return ca.String() == cb.String()
}

// TestPaperSpaceMatchesGoldenGrid pins the sweep grammar form of the
// paper evaluation to the golden grid: the lazy expansion of
// experiments.PaperSpace() must enumerate exactly goldenGrid(), in the
// same order. With TestGoldenGridCoversFigures this proves the grammar
// subsumes every figure sweep, and it anchors resume cursors minted
// against the paper space to the pinned point order.
func TestPaperSpaceMatchesGoldenGrid(t *testing.T) {
	grid, err := experiments.PaperSpace().Compile()
	if err != nil {
		t.Fatalf("compile paper space: %v", err)
	}
	want := goldenGrid()
	if grid.Size() != int64(len(want)) {
		t.Fatalf("paper space expands to %d points, golden grid has %d", grid.Size(), len(want))
	}
	for i, w := range want {
		if g := grid.PointAt(int64(i)); g != w {
			t.Fatalf("expansion index %d: grammar yields %s, golden grid has %s", i, g, w)
		}
	}
}

// refuse is an outcome cache tier that fails every design point without
// computing it: a study run through it simulates nothing and reports,
// through Failures, every point it evaluates.
type refuse struct{}

func (refuse) Do(string, func() (core.Outcome, error)) (core.Outcome, error, bool) {
	return core.Outcome{}, errors.New("refused"), false
}
func (refuse) Stats() cache.Stats { return cache.Stats{} }

// TestGoldenGridCoversFigures guards the grid definition itself: every
// point the Figure 6-8 studies evaluate, and every baseline point of the
// policy study, must be inside the golden grid, so the determinism pin
// cannot silently rot when a figure grows. The studies run through
// refuse, so the points are the ones their own grammars expand to.
func TestGoldenGridCoversFigures(t *testing.T) {
	grid := make(map[string]bool)
	for _, pt := range goldenGrid() {
		grid[pt.String()] = true
	}
	tf := core.NewWithCache(DefaultParams(), refuse{})
	var figPts []core.Point
	collect := func(study interface{ Failures() []core.Outcome }, err error) {
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range study.Failures() {
			if o.Point.Policy.IsBaseline() {
				figPts = append(figPts, o.Point)
			}
		}
	}
	collect(experiments.RunFig6(tf))
	collect(experiments.RunFig7(tf))
	collect(experiments.RunFig8(tf))
	collect(experiments.RunPolicyComparison(tf))
	if want := 36 + 72 + 288 + 72; len(figPts) != want {
		t.Errorf("studies evaluated %d baseline points, want %d", len(figPts), want)
	}
	for _, pt := range figPts {
		if !grid[pt.String()] {
			t.Errorf("figure point %s not covered by golden grid", pt)
		}
	}
	if len(grid) != 6*2*6*4*2 {
		t.Errorf("golden grid has %d points, want %d", len(grid), 6*2*6*4*2)
	}
}

// TestPaperSpaceShardPartition is the sharding acceptance proof: for many
// replica counts, the index windows of experiments.PaperSpace() are
// disjoint, gap-free, and their union enumerates the golden grid
// point-for-point, in the pinned order. This is what lets n qccdd
// replicas each sweep one shard and have their NDJSON outputs concatenate
// into exactly the paper evaluation.
func TestPaperSpaceShardPartition(t *testing.T) {
	grid, err := experiments.PaperSpace().Compile()
	if err != nil {
		t.Fatalf("compile paper space: %v", err)
	}
	want := goldenGrid()
	if grid.Size() != int64(len(want)) {
		t.Fatalf("paper space expands to %d points, golden grid has %d", grid.Size(), len(want))
	}
	for _, count := range []int{1, 2, 3, 4, 7, 16, 575, 576, 600} {
		prevEnd := int64(0)
		var union []core.Point
		for i := 0; i < count; i++ {
			w, err := grid.Shard(i, count)
			if err != nil {
				t.Fatalf("count %d shard %d: %v", count, i, err)
			}
			if w.Start != prevEnd {
				t.Fatalf("count %d shard %d: starts at %d, want %d (gap or overlap)", count, i, w.Start, prevEnd)
			}
			for j := w.Start; j < w.End; j++ {
				union = append(union, grid.PointAt(j))
			}
			prevEnd = w.End
		}
		if prevEnd != grid.Size() {
			t.Fatalf("count %d: shards end at %d, want %d", count, prevEnd, grid.Size())
		}
		if len(union) != len(want) {
			t.Fatalf("count %d: union has %d points, want %d", count, len(union), len(want))
		}
		for i := range want {
			if union[i] != want[i] {
				t.Fatalf("count %d: union point %d = %s, golden grid has %s", count, i, union[i], want[i])
			}
		}
	}
}
