package core

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"repro/internal/models"
)

func TestToolflowRun(t *testing.T) {
	tf := New(models.Default())
	o := tf.Run(Point{App: "Adder", Topology: "L6", Capacity: 20, Gate: models.AM2, Reorder: models.GS})
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if o.Result.Fidelity <= 0 || o.Result.Fidelity > 1 {
		t.Errorf("fidelity = %g", o.Result.Fidelity)
	}
	if o.Result.TotalSeconds() <= 0 {
		t.Error("zero run time")
	}
}

func TestToolflowErrorPaths(t *testing.T) {
	tf := New(models.Default())
	cases := []Point{
		{App: "missing", Topology: "L6", Capacity: 20},
		{App: "BV", Topology: "X1", Capacity: 20},
		{App: "QFT", Topology: "L2", Capacity: 4}, // too small for 64 qubits
	}
	for _, pt := range cases {
		if o := tf.Run(pt); o.Err == nil {
			t.Errorf("%s: expected error", pt)
		}
	}
}

func TestToolflowBadParams(t *testing.T) {
	p := models.Default()
	p.SplitTime = -1
	tf := New(p)
	o := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM})
	if o.Err == nil {
		t.Error("invalid params should surface as an outcome error")
	}
}

func TestCircuitCacheSharedAcrossPoints(t *testing.T) {
	tf := New(models.Default())
	a, err := tf.circuitFor("QFT")
	if err != nil {
		t.Fatal(err)
	}
	b, err := tf.circuitFor("QFT")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("circuit cache should return the same instance")
	}
}

func TestSweepMatchesSerialRuns(t *testing.T) {
	tf := New(models.Default())
	pts := CapacitySweep("BV", "L6", models.FM, models.GS, []int{14, 22, 30})
	parallel := tf.Sweep(pts)
	for i, pt := range pts {
		serial := tf.Run(pt)
		if serial.Err != nil || parallel[i].Err != nil {
			t.Fatalf("errors: %v %v", serial.Err, parallel[i].Err)
		}
		if serial.Result.Fidelity != parallel[i].Result.Fidelity ||
			serial.Result.TotalTime != parallel[i].Result.TotalTime {
			t.Errorf("point %d: parallel result differs from serial", i)
		}
	}
}

func TestSweepEmptyAndConcurrentSafety(t *testing.T) {
	tf := New(models.Default())
	if out := tf.Sweep(nil); len(out) != 0 {
		t.Error("empty sweep should return empty")
	}
	// Concurrent use of one toolflow from multiple goroutines.
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			o := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 18, Gate: models.FM})
			if o.Err != nil {
				t.Error(o.Err)
			}
		}()
	}
	wg.Wait()
}

func TestCapacitySweepShape(t *testing.T) {
	pts := CapacitySweep("QFT", "G2x3", models.PM, models.IS, []int{10, 20})
	if len(pts) != 2 || pts[0].Capacity != 10 || pts[1].Capacity != 20 {
		t.Errorf("points = %v", pts)
	}
	if pts[0].Gate != models.PM || pts[0].Reorder != models.IS {
		t.Error("microarchitecture not propagated")
	}
}

// TestQECMetricAttachment runs a Surface@d design point end-to-end and
// checks the logical-error fields ride the outcome, while non-QEC points
// stay clean — the omitempty contract that keeps the golden grid stable.
func TestQECMetricAttachment(t *testing.T) {
	tf := New(models.Default())
	o := tf.Run(Point{App: "Surface@3", Topology: "L2", Capacity: 20, Gate: models.FM, Reorder: models.GS})
	if o.Err != nil {
		t.Fatalf("Surface@3: %v", o.Err)
	}
	if o.Result.CodeDistance != 3 || o.Result.QECRounds != 3 {
		t.Errorf("QEC fields: d=%d rounds=%d, want 3/3", o.Result.CodeDistance, o.Result.QECRounds)
	}
	if o.Result.LogicalErrorRate <= 0 || o.Result.LogicalErrorRate > 0.5 {
		t.Errorf("logical error rate %v outside (0, 0.5]", o.Result.LogicalErrorRate)
	}

	plain := tf.Run(Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS})
	if plain.Err != nil {
		t.Fatalf("BV: %v", plain.Err)
	}
	if plain.Result.CodeDistance != 0 || plain.Result.QECRounds != 0 || plain.Result.LogicalErrorRate != 0 {
		t.Errorf("non-QEC point carries QEC fields: %+v", plain.Result)
	}
}

// TestGroupCompilesOncePerProgram runs gate siblings through one Group:
// they compile once, give the results a fresh per-point compile gives,
// and compile nothing once their outcomes are cached.
func TestGroupCompilesOncePerProgram(t *testing.T) {
	tf := NewCached(models.Default(), 0)
	fresh := New(models.Default())
	g := tf.NewGroup()
	for _, gate := range models.GateImpls() {
		pt := Point{App: "QFT", Topology: "G2x3", Capacity: 18, Gate: gate, Reorder: models.IS}
		o, cached := g.Do(pt)
		want := fresh.Run(pt)
		if o.Err != nil || want.Err != nil || cached {
			t.Fatalf("%s: err %v / %v, cached %v", pt, o.Err, want.Err, cached)
		}
		got, _ := json.Marshal(o.Result)
		exp, _ := json.Marshal(want.Result)
		if string(got) != string(exp) {
			t.Errorf("%s: grouped result differs from a fresh compile:\n got %s\nwant %s", pt, got, exp)
		}
	}
	if n := tf.Compiles(); n != 1 {
		t.Errorf("compiles = %d after four gate siblings, want 1", n)
	}

	// A fully cached group compiles nothing; a point of another program
	// replaces the group's program.
	g = tf.NewGroup()
	for _, gate := range models.GateImpls() {
		if _, cached := g.Do(Point{App: "QFT", Topology: "G2x3", Capacity: 18, Gate: gate, Reorder: models.IS}); !cached {
			t.Errorf("gate %s: not served from the cache", gate)
		}
	}
	if n := tf.Compiles(); n != 1 {
		t.Errorf("compiles = %d after a cached group, want 1", n)
	}
	g.Do(Point{App: "QFT", Topology: "G2x3", Capacity: 18, Gate: models.FM, Reorder: models.GS})
	if n := tf.Compiles(); n != 2 {
		t.Errorf("compiles = %d after another program, want 2", n)
	}
}

// TestGroupCompileErrorNamesEachPoint: a compile error reaches every
// point of the group, each wrapped with its own point as a per-point
// compile wraps it.
func TestGroupCompileErrorNamesEachPoint(t *testing.T) {
	tf := New(models.Default())
	g := tf.NewGroup()
	for _, gate := range models.GateImpls() {
		pt := Point{App: "QFT", Topology: "L2", Capacity: 4, Gate: gate}
		o, _ := g.Do(pt)
		want := New(models.Default()).Run(pt)
		if o.Err == nil || want.Err == nil || o.Err.Error() != want.Err.Error() {
			t.Fatalf("%s: err %v, want %v", pt, o.Err, want.Err)
		}
		if !strings.HasPrefix(o.Err.Error(), pt.String()+": ") {
			t.Errorf("%s: error %q does not name its point", pt, o.Err)
		}
	}
	if n := tf.Compiles(); n != 1 {
		t.Errorf("compiles = %d, want 1", n)
	}
}

// TestWithParamsSharesCircuitsAndCompiles: toolflows of different
// calibrations share one circuit memo and one compile counter.
func TestWithParamsSharesCircuitsAndCompiles(t *testing.T) {
	tf := NewCached(models.Default(), 0)
	p := models.Default()
	p.PhotonicLinkLatency *= 2
	other := tf.WithParams(p)
	a, err := tf.circuitFor("QFT")
	if err != nil {
		t.Fatal(err)
	}
	b, err := other.circuitFor("QFT")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("toolflows of one family built the circuit twice")
	}
	pt := Point{App: "BV", Topology: "L6", Capacity: 18, Gate: models.FM}
	tf.Run(pt)
	if _, cached := other.Do(pt); cached {
		t.Error("a different calibration was served another calibration's outcome")
	}
	if n := tf.Compiles(); n != 2 {
		t.Errorf("compiles = %d, want 2 (one per calibration)", n)
	}
}
