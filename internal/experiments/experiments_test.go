package experiments

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/models"
	"repro/internal/sweep"
)

// checkStudy fails t on a study's error or on any of its failed design
// points.
func checkStudy(t *testing.T, s interface{ Failures() []core.Outcome }, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if fails := s.Failures(); len(fails) > 0 {
		t.Fatalf("%d design points failed; first %s: %v", len(fails), fails[0].Point, fails[0].Err)
	}
}

// errRefused is the error of every point evaluated through refuse.
var errRefused = errors.New("refused")

// refuse is an outcome cache tier that fails every design point without
// computing it. A study run through it simulates nothing and reports
// every point it evaluates as a failure.
type refuse struct{}

func (refuse) Do(string, func() (core.Outcome, error)) (core.Outcome, error, bool) {
	return core.Outcome{}, errRefused, false
}
func (refuse) Stats() cache.Stats { return cache.Stats{} }

func TestRunnerSinglePoint(t *testing.T) {
	r := core.New(models.Default())
	o := r.Run(core.Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Result.Fidelity <= 0 || o.Result.Fidelity > 1 {
		t.Errorf("fidelity = %g", o.Result.Fidelity)
	}
	if o.Point.String() != "BV/L6/cap20/FM-GS" {
		t.Errorf("point string = %q", o.Point.String())
	}
}

func TestRunnerBadPoints(t *testing.T) {
	r := core.New(models.Default())
	if o := r.Run(core.Point{App: "nope", Topology: "L6", Capacity: 20}); o.Err == nil {
		t.Error("unknown app should fail")
	}
	if o := r.Run(core.Point{App: "BV", Topology: "Z9", Capacity: 20}); o.Err == nil {
		t.Error("bad topology should fail")
	}
	if o := r.Run(core.Point{App: "QFT", Topology: "L6", Capacity: 5}); o.Err == nil {
		t.Error("undersized device should fail")
	}
}

func TestSweepPreservesOrderAndParallelism(t *testing.T) {
	r := core.New(models.Default())
	pts := expand(t, sweep.Space{Apps: []string{"BV"}, Topologies: []string{"L6"}, Capacities: []int{14, 18, 22}})
	outs := r.Sweep(pts)
	if len(outs) != 3 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	for i, o := range outs {
		if o.Point.Capacity != pts[i].Capacity {
			t.Errorf("outcome %d capacity = %d, want %d", i, o.Point.Capacity, pts[i].Capacity)
		}
		if o.Err != nil {
			t.Errorf("outcome %d: %v", i, o.Err)
		}
	}
	// Sweep must be deterministic across runs despite concurrency.
	again := r.Sweep(pts)
	for i := range outs {
		if outs[i].Result.Fidelity != again[i].Result.Fidelity {
			t.Errorf("sweep nondeterministic at %d", i)
		}
	}
}

func TestTable1ContainsTableIRows(t *testing.T) {
	out := Table1(models.Default())
	for _, want := range []string{"Move ion", "Splitting", "Merging", "Y-junction", "X-junction"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
}

func TestTable2MatchesSuite(t *testing.T) {
	out, err := Table2()
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range PaperApps {
		if !strings.Contains(out, app) {
			t.Errorf("Table2 missing %s:\n%s", app, out)
		}
	}
	if !strings.Contains(out, "4032") {
		t.Errorf("Table2 missing QFT gate count:\n%s", out)
	}
}

// TestFig6PaperShape regenerates Figure 6 and asserts the paper's §IX.A
// claims at the shape level.
func TestFig6PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	f, err := RunFig6(core.New(models.Default()))
	checkStudy(t, f, err)
	// Claim: trap sizing matters — Supremacy best/worst fidelity ratio is
	// large (paper: ~15x; we accept >= 3x as shape agreement).
	if ratio := maxOver(f.Fidelity["Supremacy"]) / minOver(f.Fidelity["Supremacy"]); ratio < 3 {
		t.Errorf("Supremacy fidelity ratio = %.1f, want >= 3", ratio)
	}
	// Claim: the best capacity lies mid-range (15-25 in the paper; we
	// accept an interior peak, i.e. not the smallest capacity).
	if best := argmax(f.Capacities, f.Fidelity["Supremacy"]); best <= 14 {
		t.Errorf("Supremacy fidelity peaks at capacity %d, want interior", best)
	}
	// Claim (Fig 6f): motional energy decreases with capacity for the
	// communication-heavy apps.
	for _, app := range []string{"SquareRoot", "QFT"} {
		series := f.MaxMotional[app]
		if series[0] <= series[len(series)-1] {
			t.Errorf("%s motional energy should fall with capacity: %v", app, series)
		}
	}
	// Claim (Fig 6g): motional error dominates background error.
	for i := range f.SupremacyMotional {
		if f.SupremacyMotional[i] < 2*f.SupremacyBackground[i] {
			t.Errorf("cap %d: motional %.2e should dominate background %.2e",
				f.Capacities[i], f.SupremacyMotional[i], f.SupremacyBackground[i])
		}
	}
	// Claim (Fig 6b): QFT communication falls with capacity while
	// computation rises.
	if f.QFTComm[0] <= f.QFTComm[len(f.QFTComm)-1] {
		t.Errorf("QFT communication time should fall with capacity: %v", f.QFTComm)
	}
	if f.QFTCompute[0] >= f.QFTCompute[len(f.QFTCompute)-1] {
		t.Errorf("QFT computation time should rise with capacity: %v", f.QFTCompute)
	}
	// Rendering smoke check.
	out := f.Render()
	for _, want := range []string{"Figure 6", "(a)", "(g)", "Supremacy"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig7PaperShape regenerates Figure 7 and asserts the §IX.B claims.
func TestFig7PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	f, err := RunFig7(core.New(models.Default()))
	checkStudy(t, f, err)
	// Claim: grid boosts SquareRoot by orders of magnitude (paper: up to
	// 7000x; we require >= 50x somewhere in the sweep).
	if gain := bestFidelityGain(f.Fidelity["G2x3"]["SquareRoot"], f.Fidelity["L6"]["SquareRoot"]); gain < 50 {
		t.Errorf("SquareRoot grid gain = %.1fx, want >= 50x", gain)
	}
	// Claim: linear wins for QFT (paper: up to 4x).
	if gain := bestFidelityGain(f.Fidelity["L6"]["QFT"], f.Fidelity["G2x3"]["QFT"]); gain < 1.2 {
		t.Errorf("QFT linear gain = %.2fx, want >= 1.2x", gain)
	}
	// Claim (Fig 7g): grid reduces SquareRoot motional heating at small
	// capacities.
	if f.SqrtMotional["G2x3"][0] >= f.SqrtMotional["L6"][0] {
		t.Errorf("grid should be cooler at cap 14: grid %.1f vs linear %.1f",
			f.SqrtMotional["G2x3"][0], f.SqrtMotional["L6"][0])
	}
	out := f.Render()
	for _, want := range []string{"Figure 7", "SquareRoot", "grid-over-linear"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

// TestFig8PaperShape regenerates Figure 8 and asserts the §X claims. The
// figure's rows differ in gate implementation four at a time, so a fresh
// toolflow compiles one program per four rows.
func TestFig8PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweep")
	}
	tf := core.New(models.Default())
	f, err := RunFig8(tf)
	checkStudy(t, f, err)
	if rows, compiles := len(f.evaluated), tf.Compiles(); rows != 288 || compiles != 72 {
		t.Errorf("figure 8 compiled %d programs for %d rows, want 72 for 288", compiles, rows)
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	// Claim: AM2 beats AM1 on fidelity for the short-range QAOA.
	if mean(f.Fidelity["QAOA"]["AM2-GS"]) <= mean(f.Fidelity["QAOA"]["AM1-GS"]) {
		t.Error("AM2 should beat AM1 for QAOA (short-range gates)")
	}
	// Claim: FM beats AM1 for the long-range QFT.
	if mean(f.Fidelity["QFT"]["FM-GS"]) <= mean(f.Fidelity["QFT"]["AM1-GS"]) {
		t.Error("FM should beat AM1 for QFT (long-range gates)")
	}
	// Claim: AM2 is the fastest for QAOA; FM/PM are faster than AM1 for
	// SquareRoot.
	if mean(f.Time["QAOA"]["AM2-GS"]) >= mean(f.Time["QAOA"]["FM-GS"]) {
		t.Error("AM2 should be faster than FM for QAOA")
	}
	if mean(f.Time["SquareRoot"]["FM-GS"]) >= mean(f.Time["SquareRoot"]["AM1-GS"]) {
		t.Error("FM should be faster than AM1 for SquareRoot")
	}
	// Claim: GS vastly outperforms IS for reorder-heavy apps.
	gsOverIS := mean(f.Fidelity["SquareRoot"]["FM-GS"]) / mean(f.Fidelity["SquareRoot"]["FM-IS"])
	if gsOverIS < 100 {
		t.Errorf("SquareRoot GS/IS = %.1f, want >= 100", gsOverIS)
	}
	// Claim: QAOA's GS and IS curves match exactly where no reordering is
	// required (paper Fig 8c) — identical at every capacity >= 18.
	for i, cap := range f.Capacities {
		if cap < 18 {
			continue
		}
		if f.Fidelity["QAOA"]["FM-GS"][i] != f.Fidelity["QAOA"]["FM-IS"][i] {
			t.Errorf("QAOA GS/IS should match exactly at cap %d", cap)
		}
	}
	out := f.Render()
	if !strings.Contains(out, "AM1-GS") || !strings.Contains(out, "FM-IS") {
		t.Error("render missing combo labels")
	}
}

func maxOver(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func minOver(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

func argmax(xs []int, vals []float64) int {
	best, bestV := xs[0], vals[0]
	for i := range xs {
		if vals[i] > bestV {
			best, bestV = xs[i], vals[i]
		}
	}
	return best
}

// The full-sweep tests share one cached toolflow, as `cmd/experiments`
// shares one across its studies, so the scaling study, the slowest, is
// computed once per test binary whichever of them runs first.
var (
	studyOnce     sync.Once
	studyTF       *core.Toolflow
	studyScaling  *Scaling
	studyErr      error
	scalingMisses uint64 // points the first scaling run computed
)

// sharedToolflow returns the shared toolflow after the scaling study has
// run on it, and the study. It skips under -short.
func sharedToolflow(t *testing.T) (*core.Toolflow, *Scaling) {
	t.Helper()
	if testing.Short() {
		t.Skip("full study sweep")
	}
	studyOnce.Do(func() {
		studyTF = core.NewCached(models.Default(), 0)
		studyScaling, studyErr = RunScaling(studyTF)
		scalingMisses = studyTF.CacheStats().Misses
	})
	if studyErr != nil {
		t.Fatal(studyErr)
	}
	return studyTF, studyScaling
}

// TestScalingStudy exercises the beyond-paper extension end to end: 8
// sizes x 2 apps x 2 topologies plus the two multi-module points at 512
// qubits, each row a success on a device that holds its qubits.
func TestScalingStudy(t *testing.T) {
	_, s := sharedToolflow(t)
	if len(s.Rows) != 34 {
		t.Fatalf("rows = %d, want 34", len(s.Rows))
	}
	multiModule := 0
	for _, r := range s.Rows {
		if strings.HasPrefix(r.Topology, "Mod") {
			multiModule++
		}
	}
	if multiModule != 2 {
		t.Errorf("multi-module rows = %d, want 2 (QAOA and QFT at 512)", multiModule)
	}
	for _, r := range s.Rows {
		if r.Outcome.Err != nil {
			t.Errorf("%s/%d on %s: %v", r.App, r.Qubits, r.Topology, r.Outcome.Err)
			continue
		}
		// Fidelity legitimately underflows to zero past ~256 qubits;
		// LogFidelity stays exact, so assert on that instead.
		lf := r.Result().LogFidelity
		if !(lf < 0) || math.IsInf(lf, 0) || math.IsNaN(lf) {
			t.Errorf("%s/%d on %s: log fidelity = %v, want finite negative", r.App, r.Qubits, r.Topology, lf)
		}
		if r.Qubits > r.Traps*r.Capacity {
			t.Errorf("%s/%d: device too small (%d traps x %d)", r.App, r.Qubits, r.Traps, r.Capacity)
		}
	}
	out := s.Render()
	if !strings.Contains(out, "200") || !strings.Contains(out, "QFT") {
		t.Error("render content")
	}
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "app,qubits") {
		t.Error("csv header missing")
	}
}

// TestScalingSharesRunnerCache verifies the study flows through the
// shared outcome cache: a second run on the same toolflow recomputes
// nothing.
func TestScalingSharesRunnerCache(t *testing.T) {
	tf, _ := sharedToolflow(t)
	if scalingMisses == 0 {
		t.Fatal("first run should compute points")
	}
	misses := tf.CacheStats().Misses
	if _, err := RunScaling(tf); err != nil {
		t.Fatal(err)
	}
	if again := tf.CacheStats().Misses; again != misses {
		t.Errorf("second run recomputed %d points, want 0", again-misses)
	}
}

// TestFigureCSVExports checks the long-format CSV writers and pins the
// seven files `cmd/experiments -csv` writes. Every study runs on one
// cached toolflow, as the command does, so points shared across studies
// are computed once; each study's CSV must hash to its pinned SHA-256.
func TestFigureCSVExports(t *testing.T) {
	tf, _ := sharedToolflow(t)
	for _, st := range []struct {
		name, digest string
		run          func(*core.Toolflow) (csvStudy, error)
		contains     []string
	}{
		{"fig6", "4d34da3498c0fbd1463aef1969b9a881fac60b74fa91ab7ce5de21948b8da702",
			func(tf *core.Toolflow) (csvStudy, error) { return RunFig6(tf) },
			[]string{"figure,panel,series,capacity,value", "fig6,a_time_s,QFT,14", "g_supremacy_ms_error,Motional"}},
		{"fig7", "5d5171a56c1c6359fc8c53eafec39800e0e47420ebeb01e406cf63e3546104b5",
			func(tf *core.Toolflow) (csvStudy, error) { return RunFig7(tf) },
			[]string{"G2x3/SquareRoot"}},
		{"fig8", "2c0e756c6bd52a02238b44a781e8401b87c1fca8772bcb75e7a723ded16c9e8f",
			func(tf *core.Toolflow) (csvStudy, error) { return RunFig8(tf) },
			[]string{"QAOA/AM2-GS"}},
		{"scaling", "763f1685320d239e2bf6f7a6c47dac1b478b4b92c4f0039a5554bbbe9974e9fa",
			func(tf *core.Toolflow) (csvStudy, error) { return RunScaling(tf) }, nil},
		{"qec", "b26134d9da6f139fb35fc11b3f12ca9f99f28c13bc54e92aa61d17d747f4b524",
			func(tf *core.Toolflow) (csvStudy, error) { return RunQEC(tf) }, nil},
		{"policies", "1a3b4ae96bdf340f4f735829ede45bf6d0019d11487a2d613a152f652a08c6a3",
			func(tf *core.Toolflow) (csvStudy, error) { return RunPolicyComparison(tf) }, nil},
		{"titan", "113d91a3b990bbe519ba17beeb5124eb03d13213e232c3cb3b39a1e9ae75ec90",
			func(tf *core.Toolflow) (csvStudy, error) { return RunTitan(tf) }, nil},
	} {
		s, err := st.run(tf)
		checkStudy(t, s, err)
		var b strings.Builder
		if err := s.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range st.contains {
			if !strings.Contains(out, want) {
				t.Errorf("%s csv missing %q", st.name, want)
			}
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(out))); got != st.digest {
			t.Errorf("%s csv sha256 = %s, want %s", st.name, got, st.digest)
		}
	}
}

// csvStudy is what TestFigureCSVExports needs of a study.
type csvStudy interface {
	WriteCSV(io.Writer) error
	Failures() []core.Outcome
}

// TestScalingFailureContract pins the NaN-plus-failure reporting of the
// scaling study: failed points surface through Failures() and render as
// NaN, never aborting the study.
func TestScalingFailureContract(t *testing.T) {
	s, err := RunScaling(core.NewWithCache(models.Default(), refuse{}))
	if err != nil {
		t.Fatal(err)
	}
	fails := s.Failures()
	if len(fails) != len(s.Rows) || !errors.Is(fails[0].Err, errRefused) {
		t.Fatalf("Failures() = %d outcomes, want all %d rows refused", len(fails), len(s.Rows))
	}
	var csv strings.Builder
	if err := s.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "NaN") {
		t.Errorf("failed row should render as NaN:\n%s", csv.String())
	}
	if !strings.Contains(s.Render(), "NaN") {
		t.Errorf("failed row should render as NaN in the table")
	}
}

// TestSizedStudyDevices pins the devices the scaling, QEC and TITAN
// studies grow to hold their workloads at capacity 22, and checks that
// every row describes the design point its grammar evaluates there. The
// studies run through refuse, so nothing is simulated.
func TestSizedStudyDevices(t *testing.T) {
	tf := core.NewWithCache(models.Default(), refuse{})
	got := map[string][]string{}
	// add records a row as "<app> <topology>" after checking it against
	// the point evaluated for it.
	add := func(study, app, topology string, traps int, o core.Outcome) {
		if pt := o.Point; pt.App != app || pt.Topology != topology || pt.Capacity != studyCapacity {
			t.Errorf("%s: row %s on %s evaluated %s", study, app, topology, pt)
		}
		if d, err := device.Parse(topology, studyCapacity); err != nil || d.NumTraps() != traps {
			t.Errorf("%s: %s claims %d traps (parse error: %v)", study, topology, traps, err)
		}
		got[study] = append(got[study], app+" "+topology)
	}
	s, err := RunScaling(tf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range s.Rows {
		add("scaling", fmt.Sprintf("%s@%d", r.App, r.Qubits), r.Topology, r.Traps, r.Outcome)
	}
	q, err := RunQEC(tf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range q.Rows {
		add("qec", fmt.Sprintf("Surface@%d", r.Distance), r.Topology, r.Traps, r.Outcome)
	}
	ti, err := RunTitan(tf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ti.Rows {
		add("titan", fmt.Sprintf("%s@%d", ti.App, ti.Qubits), r.Topology, r.Traps, r.Outcome)
	}

	titan := []string{"QFT@512 Mod2:G2x7", "QFT@512 Mod3:G2x5", "QFT@512 Mod4:G2x4"}
	want := map[string][]string{
		"scaling": {
			"QAOA@64 L4", "QAOA@64 G2x2", "QFT@64 L4", "QFT@64 G2x2",
			"QAOA@96 L5", "QAOA@96 G2x3", "QFT@96 L5", "QFT@96 G2x3",
			"QAOA@128 L7", "QAOA@128 G2x4", "QFT@128 L7", "QFT@128 G2x4",
			"QAOA@160 L8", "QAOA@160 G2x4", "QFT@160 L8", "QFT@160 G2x4",
			"QAOA@200 L10", "QAOA@200 G2x5", "QFT@200 L10", "QFT@200 G2x5",
			"QAOA@256 L13", "QAOA@256 G2x7", "QFT@256 L13", "QFT@256 G2x7",
			"QAOA@384 L20", "QAOA@384 G2x10", "QFT@384 L20", "QFT@384 G2x10",
			"QAOA@512 L26", "QAOA@512 G2x13", "QAOA@512 Mod2:G2x7",
			"QFT@512 L26", "QFT@512 G2x13", "QFT@512 Mod2:G2x7",
		},
		"qec": {
			"Surface@3 L2", "Surface@3 G2x2", "Surface@5 L3", "Surface@5 G2x2",
			"Surface@7 L5", "Surface@7 G2x3", "Surface@9 L9", "Surface@9 G2x5",
		},
		// The same three devices under each of the three link latencies.
		"titan": slices.Concat(titan, titan, titan),
	}
	for _, study := range []string{"scaling", "qec", "titan"} {
		if g, w := strings.Join(got[study], ", "), strings.Join(want[study], ", "); g != w {
			t.Errorf("%s rows:\n got %s\nwant %s", study, g, w)
		}
	}
}
