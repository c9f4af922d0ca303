package main

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"testing"
)

func TestMixedStream(t *testing.T) {
	const n = 720
	a, b := mixedStream(7, n), mixedStream(7, n)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different request streams")
	}
	if slices.Equal(a, mixedStream(8, n)) {
		t.Error("seeds 7 and 8 gave the same request stream")
	}
	if len(a) != n+mixedRepeats {
		t.Fatalf("stream has %d requests, want %d", len(a), n+mixedRepeats)
	}
	seen := make(map[int]bool)
	repeats := 0
	for i, k := range a {
		if k < 0 || k >= n {
			t.Fatalf("request %d names point %d, outside [0, %d)", i, k, n)
		}
		if seen[k] {
			repeats++
		}
		seen[k] = true
	}
	if len(seen) != n || repeats != mixedRepeats {
		t.Errorf("stream has %d unique points and %d repeats, want %d and %d", len(seen), repeats, n, mixedRepeats)
	}
}

func TestMixedInputs(t *testing.T) {
	in, err := mixedInputs(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.points) != 720 || len(in.reqs) != 960 || in.pointsPerRep() != 960 {
		t.Fatalf("mixed-run has %d points and %d requests (%d rows), want 720 and 960",
			len(in.points), len(in.reqs), in.pointsPerRep())
	}
	for _, rq := range in.reqs[:5] {
		var body struct {
			Point json.RawMessage `json:"point"`
		}
		if err := json.Unmarshal(rq.body, &body); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body.Point, in.points[rq.key]) {
			t.Errorf("request for key %d carries point %s, want %s", rq.key, body.Point, in.points[rq.key])
		}
	}
}

func TestCheckerCountsComputes(t *testing.T) {
	in := &inputs{points: [][]byte{[]byte(`{"a":1}`)}, refs: make([][]byte, 1)}
	c := newChecker(in, 1)
	c.observe(0, row{Point: []byte(`{"a":1}`), Result: []byte(`{"r":1}`)})
	c.observe(0, row{Point: []byte(`{"a":1}`), Result: []byte(`{"r":1}`), Cached: true})
	c.endRep()
	if c.nProblem != 0 {
		t.Fatalf("a computed point and its cached repeat failed the checks: %v", c.problems)
	}
	c.observe(0, row{Point: []byte(`{"a":1}`), Result: []byte(`{"r":2}`)})
	c.observe(0, row{Point: []byte(`{"a":1}`), Result: []byte(`{"r":1}`)})
	c.endRep()
	// One changed result, and two computations of one point in one rep.
	if c.nProblem != 2 {
		t.Errorf("checker found %d problems, want 2: %v", c.nProblem, c.problems)
	}
}

func TestParseRow(t *testing.T) {
	line := []byte(`{"seq":12,"cursor":"cWMx","point":{"app":"BV","topology":"L6","capacity":14},` +
		`"result":{"name":"a}\"[b","per_trap":[1,2,{"x":3}]},"cached":true,"elapsed_us":47}`)
	r, err := parseRow(line)
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 12 || !r.Cached || r.ElapsedUS != 47 || r.Error != "" {
		t.Errorf("parseRow = %+v", r)
	}
	if string(r.Point) != `{"app":"BV","topology":"L6","capacity":14}` {
		t.Errorf("point = %s", r.Point)
	}
	if string(r.Result) != `{"name":"a}\"[b","per_trap":[1,2,{"x":3}]}` {
		t.Errorf("result = %s", r.Result)
	}
	r, err = parseRow([]byte(`{"point":{"app":"X"},"error":"no \"X\"","cached":false,"elapsed_us":3}`))
	if err != nil || r.Error != `no "X"` || r.Result != nil {
		t.Errorf("error row = %+v, %v", r, err)
	}
	for _, bad := range []string{``, `[]`, `{"seq":`, `{"seq":1,"point":{"a":1}`, `{"seq":x}`} {
		if _, err := parseRow([]byte(bad)); err == nil {
			t.Errorf("parseRow(%q) accepted a malformed row", bad)
		}
	}
}

// testSpec reads the repository's BENCHMARK.json.
func testSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := loadSpec("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode checks that BENCHMARK.json names exactly the
// workloads this command runs and only end-to-end metrics it computes.
func TestSpecMatchesCode(t *testing.T) {
	spec := testSpec(t)
	ws, err := spec.workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command runs %d", len(ws), len(workloads))
	}
	s := e2eSamples{rate: []float64{1}, p50: []float64{1}, tail: []float64{1}, rss: []float64{1}, setup: []float64{1}, byRow: [][]int64{{1}}, probeMS: []float64{100}, tailP: 50}
	m, err := named(e2eMetrics(s), spec.EndToEnd)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range spec.EndToEnd {
		if m[d.Name].Unit != d.Unit {
			t.Errorf("%s has unit %q, want %q", d.Name, m[d.Name].Unit, d.Unit)
		}
	}
	if _, err := named(e2eMetrics(s), append(spec.EndToEnd, metricSpec{Name: "nonesuch"})); err == nil {
		t.Error("named accepted a metric the command does not compute")
	}
}

// TestE2EMetricsScaleByHostSpeed checks that a run whose host probe took
// twice the reference scales its measured rate up and its per-point
// durations down by 2^hostElasticity, and leaves set-up time and memory
// as measured. The median row, 2000 µs, stands for [2000, 2001) µs.
func TestE2EMetricsScaleByHostSpeed(t *testing.T) {
	s := e2eSamples{
		rate: []float64{100, 200, 300}, p50: []float64{1}, tail: []float64{1}, rss: []float64{50},
		setup: []float64{0.004}, byRow: [][]int64{{1000}, {2000}, {3000}}, tailP: 50,
		probeMS: []float64{150, 200, 250},
	}
	f := math.Pow(2, hostElasticity)
	m := e2eMetrics(s)
	for name, want := range map[string]float64{
		"points_per_s": 200 * f, "point_p50_ms": 2.0005 / f, "setup_s": 0.004, "peak_rss_mb": 50,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v (raw %v)", name, got, want, m[name].Raw)
		}
	}
	if m["points_per_s"].Raw != 200 {
		t.Errorf("points_per_s raw = %v, want the measured median 200", m["points_per_s"].Raw)
	}
}
