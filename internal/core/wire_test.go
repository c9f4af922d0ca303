package core

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/models"
)

func TestPointJSONRoundTrip(t *testing.T) {
	in := Point{App: "QFT", Topology: "G2x3", Capacity: 18, Gate: models.PM, Reorder: models.IS}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"app":"QFT"`, `"gate":"PM"`, `"reorder":"IS"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("json %s missing %s", data, want)
		}
	}
	var out Point
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip = %+v, want %+v", out, in)
	}
}

func TestPointJSONDefaultsAndErrors(t *testing.T) {
	var p Point
	if err := json.Unmarshal([]byte(`{"app":"BV","topology":"L6","capacity":20}`), &p); err != nil {
		t.Fatal(err)
	}
	if p.Gate != models.FM || p.Reorder != models.GS {
		t.Errorf("defaults = %s-%s, want FM-GS", p.Gate, p.Reorder)
	}
	if err := json.Unmarshal([]byte(`{"app":"BV","topology":"L6","capacity":20,"gate":"ZZ"}`), &p); err == nil {
		t.Error("bad gate should fail to decode")
	}
	if err := json.Unmarshal([]byte(`{"app":"BV","topology":"L6","capacity":20,"reorder":"XX"}`), &p); err == nil {
		t.Error("bad reorder should fail to decode")
	}
}

func TestPointValidate(t *testing.T) {
	good := Point{App: "BV", Topology: "L6", Capacity: 20}
	if err := good.Validate(); err != nil {
		t.Error(err)
	}
	for _, bad := range []Point{
		{Topology: "L6", Capacity: 20},
		{App: "BV", Capacity: 20},
		{App: "BV", Topology: "L6", Capacity: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("%+v should fail validation", bad)
		}
	}
}

func TestOutcomeJSONRoundTrip(t *testing.T) {
	pt := Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS}
	o := New(models.Default()).Run(pt)
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Point != pt || back.Err != nil {
		t.Errorf("round trip point = %+v err = %v", back.Point, back.Err)
	}
	if back.Result == nil || back.Result.Fidelity != o.Result.Fidelity {
		t.Error("result did not survive the round trip")
	}

	failed := Outcome{Point: pt, Err: errors.New("boom")}
	data, err = json.Marshal(failed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"error":"boom"`) {
		t.Errorf("failed outcome json = %s", data)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Err == nil || back.Err.Error() != "boom" {
		t.Errorf("error round trip = %v", back.Err)
	}
}

// TestPointPolicyWireInvariance pins the compatibility contract of the
// policy axis: a baseline point is byte-identical on the wire, in String
// and in its cache key to a point that predates the field, so golden
// results and warm caches survive the policy layer's introduction.
func TestPointPolicyWireInvariance(t *testing.T) {
	base := models.Default()
	pre := Point{App: "QFT", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.GS}
	data, err := json.Marshal(pre)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "policy") {
		t.Errorf("baseline point json %s mentions policy", data)
	}
	if strings.Contains(pre.String(), "baseline") {
		t.Errorf("baseline point String() = %q mentions policy", pre.String())
	}

	// Decoding an explicit "baseline" normalizes to the zero value, so the
	// struct compares equal to the implicit form and shares its cache key.
	var spelled Point
	if err := json.Unmarshal([]byte(`{"app":"QFT","topology":"L6","capacity":22,"policy":"BASELINE"}`), &spelled); err != nil {
		t.Fatal(err)
	}
	if spelled != pre {
		t.Errorf("explicit baseline decoded to %+v, want %+v", spelled, pre)
	}
	if CacheKey(spelled, base) != CacheKey(pre, base) {
		t.Error("explicit and implicit baseline must share cache keys")
	}

	// Non-baseline policies round-trip, render in String, and key apart.
	alt := pre
	alt.Policy = "lookahead"
	data, err = json.Marshal(alt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"policy":"lookahead"`) {
		t.Errorf("json %s missing policy field", data)
	}
	var back Point
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != alt {
		t.Errorf("round trip = %+v, want %+v", back, alt)
	}
	if !strings.Contains(alt.String(), "lookahead") {
		t.Errorf("String() = %q missing policy", alt.String())
	}
	if CacheKey(alt, base) == CacheKey(pre, base) {
		t.Error("policy change must change the cache key")
	}

	// Unknown policies fail at decode and at validation.
	if err := json.Unmarshal([]byte(`{"app":"BV","topology":"L6","capacity":20,"policy":"nope"}`), &back); err == nil {
		t.Error("bad policy should fail to decode")
	}
	bad := pre
	bad.Policy = "nope"
	if err := bad.Validate(); err == nil {
		t.Error("bad policy should fail validation")
	}
}

// TestPointPolicySpellingsShareKey checks that a Go caller's policy
// spelling does not split a design point: any capitalization of a policy
// name that Validate accepts has the canonical spelling's cache key,
// String and JSON, so a cached toolflow computes the point once.
func TestPointPolicySpellingsShareKey(t *testing.T) {
	base := models.Default()
	for _, tc := range []struct{ canonical, spelled models.PolicyName }{
		{"lookahead", "LookAhead"},
		{"congestion", "CONGESTION"},
	} {
		canon := Point{App: "BV", Topology: "L6", Capacity: 20, Policy: tc.canonical}
		spelled := canon
		spelled.Policy = tc.spelled
		if err := spelled.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.spelled, err)
		}
		if got, want := CacheKey(spelled, base), CacheKey(canon, base); got != want {
			t.Errorf("%s: cache key %s, want %s", tc.spelled, got, want)
		}
		if got, want := spelled.String(), canon.String(); got != want {
			t.Errorf("%s: String() = %q, want %q", tc.spelled, got, want)
		}
		got, err := json.Marshal(spelled)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(canon); string(got) != string(want) {
			t.Errorf("%s: json %s, want %s", tc.spelled, got, want)
		}

		tf := NewCached(base, 0)
		if o, hit := tf.Do(canon); o.Err != nil || hit {
			t.Fatalf("%s: first Do = %v, hit %v", tc.canonical, o.Err, hit)
		}
		if o, hit := tf.Do(spelled); o.Err != nil || !hit {
			t.Errorf("%s: second Do = %v, hit %v; want a cache hit", tc.spelled, o.Err, hit)
		}
		if n := tf.Compiles(); n != 1 {
			t.Errorf("%s: %d compiles, want 1", tc.spelled, n)
		}
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	base := models.Default()
	pt := Point{App: "QFT", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.GS}
	key := CacheKey(pt, base)
	if key != CacheKey(pt, base) {
		t.Error("equal inputs must produce equal keys")
	}
	variants := []Point{
		{App: "BV", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.GS},
		{App: "QFT", Topology: "G2x3", Capacity: 22, Gate: models.FM, Reorder: models.GS},
		{App: "QFT", Topology: "L6", Capacity: 26, Gate: models.FM, Reorder: models.GS},
		{App: "QFT", Topology: "L6", Capacity: 22, Gate: models.AM2, Reorder: models.GS},
		{App: "QFT", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.IS},
	}
	for _, v := range variants {
		if CacheKey(v, base) == key {
			t.Errorf("point %s should key differently from %s", v, pt)
		}
	}
	hot := base
	hot.K1 *= 2
	if CacheKey(pt, hot) == key {
		t.Error("parameter change should change the key")
	}
	// The per-point gate always overrides params.Gate, so calibrations
	// differing only in Gate must share keys.
	gateOnly := base
	gateOnly.Gate = models.AM1
	if CacheKey(pt, gateOnly) != key {
		t.Error("params.Gate must be normalized out of the key")
	}
}

// TestCacheKeyMatchesStoredEntries checks the exported CacheKey is the
// exact key Toolflow.Do stores outcomes under, so external callers can
// look up or pre-seed the cache.
func TestCacheKeyMatchesStoredEntries(t *testing.T) {
	base := models.Default()
	tf := NewCached(base, 16)
	pt := Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS}
	o, _ := tf.Do(pt)
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	got, ok := tf.Cache().Get(CacheKey(pt, base))
	if !ok {
		t.Fatal("CacheKey must address the entry Do stored")
	}
	if got.Result != o.Result {
		t.Error("lookup returned a different outcome")
	}
	// Two toolflows sharing a cache, differing only in base.Gate, share
	// outcomes: each point pins its own gate.
	other := base
	other.Gate = models.PM
	tf2 := NewWithCache(other, tf.Cache())
	if _, hit := tf2.Do(pt); !hit {
		t.Error("calibrations differing only in Gate must share cache entries")
	}
}

func TestToolflowCacheReusesOutcomes(t *testing.T) {
	tf := NewCached(models.Default(), 128)
	pt := Point{App: "BV", Topology: "L6", Capacity: 20, Gate: models.FM, Reorder: models.GS}
	first, hit := tf.Do(pt)
	if first.Err != nil || hit {
		t.Fatalf("first run err=%v hit=%v", first.Err, hit)
	}
	second, hit := tf.Do(pt)
	if second.Err != nil || !hit {
		t.Fatalf("second run err=%v hit=%v", second.Err, hit)
	}
	if first.Result != second.Result {
		t.Error("cached run should return the stored result")
	}
	if st := tf.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
	// Failed outcomes are not stored: the same bad point recomputes.
	bad := Point{App: "nope", Topology: "L6", Capacity: 20}
	if o, _ := tf.Do(bad); o.Err == nil {
		t.Fatal("unknown app should fail")
	}
	if _, hit := tf.Do(bad); hit {
		t.Error("failed outcome must not be served from the cache")
	}
}

func TestSweepWithSharedCacheComputesUniquePointsOnce(t *testing.T) {
	tf := NewCached(models.Default(), 0)
	pts := bvOnL6(14, 18, 22)
	// Duplicate the whole grid: 6 submissions, 3 unique points.
	outs := tf.Sweep(append(append([]Point{}, pts...), pts...))
	for i, o := range outs {
		if o.Err != nil {
			t.Fatalf("outcome %d: %v", i, o.Err)
		}
	}
	tf.Sweep(pts) // rerun: all hits
	st := tf.CacheStats()
	if st.Misses != 3 {
		t.Errorf("unique computes = %d, want 3 (stats %+v)", st.Misses, st)
	}
	if st.Hits+st.Shared != 6 {
		t.Errorf("hits+shared = %d, want 6 (stats %+v)", st.Hits+st.Shared, st)
	}
}

// TestCacheKeysPinned pins cache keys that disk caches already hold: a
// plain paper point, a non-baseline policy, and a TITAN-study calibration
// of a multi-module point.
func TestCacheKeysPinned(t *testing.T) {
	titan := models.Default()
	titan.PhotonicLinkLatency = 100
	for _, tc := range []struct {
		pt     Point
		params models.Params
		want   string
	}{
		{Point{App: "QFT", Topology: "L6", Capacity: 22, Gate: models.FM, Reorder: models.GS}, models.Default(),
			"adc2e770bad92131a524d2acea7850fb29664bb9f036f0c8f6c37ba1d6b9b6fc"},
		{Point{App: "BV", Topology: "G2x3", Capacity: 14, Gate: models.AM1, Reorder: models.IS, Policy: "lookahead"}, models.Default(),
			"4f72901741b923d5fbb9c40b375af851bb1c81f3fc7380603898ea05c83e2745"},
		{Point{App: "QFT@512", Topology: "Mod2:G2x7", Capacity: 22, Gate: models.FM, Reorder: models.GS}, titan,
			"8c6042cca175db03fc7bdefb825a866fecd5634d761cd66e42d1bfb04027bbe9"},
	} {
		if got := CacheKey(tc.pt, tc.params); got != tc.want {
			t.Errorf("CacheKey(%s) = %s, want %s", tc.pt, got, tc.want)
		}
	}
}
