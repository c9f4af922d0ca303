package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/device"
	"repro/internal/models"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func TestNewRejectsInvalidParams(t *testing.T) {
	bad := models.Default()
	bad.MeasureFidelity = 1.5
	if _, err := New(Config{Params: bad}); err == nil {
		t.Error("invalid calibration must not be silently replaced")
	}
	if srv, err := New(Config{}); err != nil || srv == nil {
		t.Errorf("zero config should default: %v", err)
	}
}

func postJSON(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestRunSingleAndCacheHit(t *testing.T) {
	srv, ts := newTestServer(t)
	body := `{"point":{"app":"BV","topology":"L6","capacity":20,"gate":"FM","reorder":"GS"}}`

	resp := postJSON(t, ts.URL+"/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	first := decodeBody[RunResponse](t, resp)
	if first.Error != "" || first.Result == nil {
		t.Fatalf("first run = %+v", first)
	}
	if first.Cached {
		t.Error("first evaluation must not be a cache hit")
	}
	if first.Result.Fidelity <= 0 || first.Result.Fidelity > 1 {
		t.Errorf("fidelity = %g", first.Result.Fidelity)
	}

	second := decodeBody[RunResponse](t, postJSON(t, ts.URL+"/v1/run", body))
	if !second.Cached {
		t.Error("identical point must hit the cache")
	}
	if second.Result == nil || second.Result.Fidelity != first.Result.Fidelity {
		t.Error("cached result must match the computed one")
	}
	if st := srv.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v", st)
	}
}

func TestRunComputedFailureIsAnOutcome(t *testing.T) {
	_, ts := newTestServer(t)
	// Unknown app is a valid request whose evaluation fails.
	resp := postJSON(t, ts.URL+"/v1/run", `{"point":{"app":"nope","topology":"L6","capacity":20}}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeBody[RunResponse](t, resp)
	if out.Error == "" || out.Result != nil {
		t.Errorf("failed outcome = %+v", out)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, path, body string
	}{
		{"malformed json", "/v1/run", `{"point":`},
		{"unknown field", "/v1/run", `{"pointt":{}}`},
		{"missing app", "/v1/run", `{"point":{"topology":"L6","capacity":20}}`},
		{"typo in nested point field", "/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20,"reorderr":"IS"}}`},
		{"typo in nested params field", "/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20},"params":{"gate":"FM","bogus":1}}`},
		{"bad gate name", "/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20,"gate":"ZZ"}}`},
		{"unknown policy", "/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20,"policy":"nope"}}`},
		{"app size with leading zero", "/v1/run", `{"point":{"app":"QFT@064","topology":"L6","capacity":20}}`},
		{"app size with sign", "/v1/run", `{"point":{"app":"QFT@+64","topology":"L6","capacity":20}}`},
		{"unknown policy in sweep point", "/v1/sweep", `{"points":[{"app":"BV","topology":"L6","capacity":20,"policy":"nope"}]}`},
		{"zero capacity", "/v1/run", `{"point":{"app":"BV","topology":"L6"}}`},
		{"incomplete params", "/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20},"params":{"gate":"FM"}}`},
		{"empty sweep", "/v1/sweep", `{"points":[]}`},
		{"invalid sweep point", "/v1/sweep", `{"points":[{"app":"BV","topology":"L6","capacity":20},{"app":"","topology":"L6","capacity":20}]}`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		body := decodeBody[errorBody](t, resp)
		if body.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// Method mismatches are routed by the mux.
	resp, err := http.Get(ts.URL + "/v1/run")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run status = %d, want 405", resp.StatusCode)
	}
}

// TestSweepBodyOverCapRejected sends a well-formed points list just past
// the body cap: the request is refused before any point is evaluated.
func TestSweepBodyOverCapRejected(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	const point = `{"app":"BV","topology":"L6","capacity":20,"gate":"FM","reorder":"GS"}`
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for sb.Len() <= maxBodyBytes {
		sb.WriteString(point + ",")
	}
	sb.WriteString(point + `]}`)
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sb.String())))
	if w.Code != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", w.Code)
	}
	var body errorBody
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(body.Error, "request body too large") {
		t.Errorf("error = %q, want it to say the request body is too large", body.Error)
	}
	if n := srv.CacheStats().Misses; n != 0 {
		t.Errorf("%d points evaluated, want none", n)
	}
}

func TestSweepStreamsNDJSONWithCacheHits(t *testing.T) {
	srv, ts := newTestServer(t)
	// Four submissions over two unique points. A repeated point shares its
	// first copy's compile group, so the later copy is always the cache
	// hit. Rows stream in input order, framed like a grammar sweep's.
	pt14 := `{"app":"BV","topology":"L6","capacity":14}`
	pt18 := `{"app":"BV","topology":"L6","capacity":18}`
	body := `{"points":[` + pt14 + `,` + pt18 + `,` + pt14 + `,` + pt18 + `],"workers":2}`

	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	header, lines, summary := ndjson(t, resp.Body)
	if header == nil || len(lines) != 4 || summary == nil {
		t.Fatalf("header = %v, lines = %d, summary = %v", header, len(lines), summary)
	}
	if header.GridSize != 4 || header.Start != 0 || header.End != 4 || header.SweepID == "" {
		t.Errorf("header = %+v", header)
	}
	for i, line := range lines {
		if line.Error != "" || line.Result == nil {
			t.Errorf("line %+v", line)
		}
		if line.Seq != i {
			t.Errorf("row %d has seq %d: points rows must stream in input order", i, line.Seq)
		}
		if line.Cursor == "" {
			t.Errorf("row %d has no cursor", i)
		}
		if want := i >= 2; line.Cached != want {
			t.Errorf("row %d cached = %v, want %v", i, line.Cached, want)
		}
	}
	if summary.Total != 4 || summary.Failed != 0 || summary.SweepID != header.SweepID {
		t.Errorf("summary = %+v", summary)
	}
	st := srv.CacheStats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("computes = %d, hits = %d, want 2 and 2 (stats %+v)", st.Misses, st.Hits, st)
	}
	if summary.CacheHits != 2 {
		t.Errorf("summary cache hits = %d, want 2", summary.CacheHits)
	}
}

func TestSweepReportsFailedPoints(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"points":[{"app":"BV","topology":"L6","capacity":20},{"app":"nope","topology":"L6","capacity":20}]}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	defer resp.Body.Close()
	header, rows, summary := ndjson(t, resp.Body)
	if header == nil || summary == nil || len(rows) != 2 {
		t.Fatalf("header = %v, rows = %d, summary = %v", header, len(rows), summary)
	}
	if rows[0].Error != "" || rows[1].Error == "" {
		t.Errorf("row errors = %q, %q: want only the unknown app to fail", rows[0].Error, rows[1].Error)
	}
	if summary.Total != 2 || summary.Failed != 1 {
		t.Errorf("summary = %+v", summary)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	_, ts := newTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	appsResp := decodeBody[AppsResponse](t, resp)
	if len(appsResp.Apps) != 6 {
		t.Fatalf("apps = %d, want 6", len(appsResp.Apps))
	}
	names := map[string]bool{}
	for _, a := range appsResp.Apps {
		names[a.Name] = true
		if a.Qubits <= 0 || a.TwoQubitGates <= 0 {
			t.Errorf("app %+v missing stats", a)
		}
	}
	for _, want := range []string{"Supremacy", "QAOA", "SquareRoot", "QFT", "Adder", "BV"} {
		if !names[want] {
			t.Errorf("missing app %s", want)
		}
	}
	if appsResp.Sized.Form != "<app>@<n>" || appsResp.Sized.MaxQubits != apps.MaxSizedQubits {
		t.Errorf("sized info = %+v", appsResp.Sized)
	}
	if len(appsResp.Sized.Families) != 7 {
		t.Errorf("sized families = %d, want 7", len(appsResp.Sized.Families))
	}
	sizedBases := map[string]bool{}
	for _, fam := range appsResp.Sized.Families {
		sizedBases[fam.Base] = true
		// Surface is sized-only (no Table II instance); every other family
		// must correspond to a suite app.
		if (!names[fam.Base] && fam.Base != "Surface") || fam.Constraint == "" {
			t.Errorf("sized family %+v", fam)
		}
	}
	if !sizedBases["Surface"] {
		t.Error("sized families missing Surface")
	}

	resp, err = http.Get(ts.URL + "/v1/topologies")
	if err != nil {
		t.Fatal(err)
	}
	topos := decodeBody[TopologiesResponse](t, resp)
	registered := device.Families()
	if len(topos.Families) != len(registered) {
		t.Errorf("topologies lists %d families, registry has %d", len(topos.Families), len(registered))
	}
	for i, f := range topos.Families {
		if i < len(registered) && f.Name != registered[i].Name {
			t.Errorf("family[%d] = %q, want %q (registration order)", i, f.Name, registered[i].Name)
		}
		if f.Name == "" || f.Form == "" || f.Description == "" || f.Constraint == "" {
			t.Errorf("family %+v missing name, form, description or constraint", f)
		}
	}
	if len(topos.Examples) < len(registered) {
		t.Errorf("topologies = %d examples, want >= one per family", len(topos.Examples))
	}
	exampleSpecs := map[string]bool{}
	for _, ex := range topos.Examples {
		exampleSpecs[ex.Spec] = true
		if ex.Traps <= 0 || ex.MaxIons <= 0 {
			t.Errorf("example %+v not parsed", ex)
		}
	}
	if !exampleSpecs["Mod2:G2x3"] {
		t.Error("topologies examples missing a multi-module device")
	}

	resp, err = http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	pols := decodeBody[PoliciesResponse](t, resp)
	if len(pols.Policies) < 3 {
		t.Fatalf("policies = %+v, want at least baseline+lookahead+congestion", pols.Policies)
	}
	if pols.Policies[0].Name != "baseline" {
		t.Errorf("first policy = %q, want baseline", pols.Policies[0].Name)
	}
	polNames := map[string]bool{}
	for _, p := range pols.Policies {
		polNames[p.Name] = true
		if p.Name == "" || p.Description == "" {
			t.Errorf("policy %+v missing name or description", p)
		}
	}
	for _, want := range []string{"baseline", "lookahead", "congestion"} {
		if !polNames[want] {
			t.Errorf("missing policy %s", want)
		}
	}

	resp, err = http.Get(ts.URL + "/v1/params")
	if err != nil {
		t.Fatal(err)
	}
	params := decodeBody[models.Params](t, resp)
	if params.Validate() != nil || params != models.Default() {
		t.Errorf("params = %+v", params)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeBody[Health](t, resp)
	if health.Status != "ok" || health.GoVersion == "" {
		t.Errorf("health = %+v", health)
	}
}

// TestParamsBodyPinned pins the exact GET /v1/params body: clients start
// their override documents from it, so its keys, order and number
// formatting are wire contract.
func TestParamsBodyPinned(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/params")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"gate":"FM","one_qubit_time_us":5,"measure_time_us":100,"move_time_us":5,` +
		`"split_time_us":80,"merge_time_us":80,"y_junction_time_us":100,"x_junction_time_us":120,` +
		`"ion_swap_rotate_time_us":42,"k1_quanta":0.1,"k2_quanta":0.01,"junction_heating_quanta":0.01,` +
		`"background_rate_per_s":0.5,"a0":0.00001,"a1q":0.000001,"measure_fidelity":0.9999,` +
		`"swap_ms_gates":3,"swap_one_q_gates":4,"photonic_link_latency_us":300,"photonic_link_infidelity":0.02}` + "\n"
	if string(body) != want {
		t.Errorf("GET /v1/params body =\n%s\nwant\n%s", body, want)
	}
}

// TestPolicyBodiesPinned pins the policy wire: the exact GET /v1/policies
// body (names, descriptions and their order) and the unknown-policy error
// a point and a sweep grammar get, which lists every accepted name.
func TestPolicyBodiesPinned(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/policies")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"policies":[` +
		`{"name":"baseline","description":"the paper's heuristics: earliest-ready gate order, first-use-order placement, distance+occupancy routing with Belady eviction"},` +
		`{"name":"congestion","description":"congestion-aware routing: the occupancy penalty also charges live in-flight transits toward a trap, decaying as they age out"},` +
		`{"name":"lookahead","description":"lookahead-4 gate order: among ready gates, prefer cheap-to-communicate gates whose operands' upcoming partners are already co-located"}]}` + "\n"
	if string(body) != want {
		t.Errorf("GET /v1/policies body =\n%s\nwant\n%s", body, want)
	}

	for _, tc := range []struct{ path, body, want string }{
		{"/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":14,"policy":"nope"}}`,
			`bad request: core: point: models: unknown compiler policy "nope" (want baseline|congestion|lookahead)`},
		{"/v1/sweep", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14],"policies":["nope"]}}`,
			`sweep: space: policies[0]: models: unknown compiler policy "nope" (want baseline|congestion|lookahead)`},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.path, resp.StatusCode)
		}
		if got := decodeBody[errorBody](t, resp).Error; got != tc.want {
			t.Errorf("%s: error = %q, want %q", tc.path, got, tc.want)
		}
	}
}

func TestParamsOverrideKeysCacheSeparately(t *testing.T) {
	srv, ts := newTestServer(t)
	point := `"point":{"app":"BV","topology":"L6","capacity":20}`
	base := decodeBody[RunResponse](t, postJSON(t, ts.URL+"/v1/run", `{`+point+`}`))
	if base.Error != "" {
		t.Fatal(base.Error)
	}

	// A full params document with doubled background heating.
	hot := models.Default()
	hot.BackgroundRate *= 2
	hotJSON, err := json.Marshal(hot)
	if err != nil {
		t.Fatal(err)
	}
	over := decodeBody[RunResponse](t, postJSON(t, ts.URL+"/v1/run",
		`{`+point+`,"params":`+string(hotJSON)+`}`))
	if over.Error != "" {
		t.Fatal(over.Error)
	}
	if over.Cached {
		t.Error("different calibration must not hit the base cache entry")
	}
	if over.Result.Fidelity >= base.Result.Fidelity {
		t.Errorf("hotter trap should lower fidelity: %g vs %g",
			over.Result.Fidelity, base.Result.Fidelity)
	}
	if st := srv.CacheStats(); st.Misses != 2 {
		t.Errorf("unique computes = %d, want 2", st.Misses)
	}
}

// droppingWriter simulates a client that disconnects mid-stream: every
// write after the first fails, as the HTTP ResponseWriter of a closed
// connection does.
type droppingWriter struct {
	header http.Header
	writes int
}

func (w *droppingWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *droppingWriter) WriteHeader(int) {}

func (w *droppingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("write on closed connection")
	}
	return len(p), nil
}

func TestSweepStopsEvaluatingAfterClientDrop(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// 60 unique points; the client drops after the first streamed line.
	const total = 60
	const workers = 2
	var sb strings.Builder
	sb.WriteString(`{"workers":2,"points":[`)
	for i := 0; i < total; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"app":"BV","topology":"L%d","capacity":%d,"gate":"FM","reorder":"GS"}`,
			2+i%6, 14+i/6)
	}
	sb.WriteString(`]}`)

	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(sb.String()))
	w := &droppingWriter{}
	srv.handleSweep(w, req) // returns only once all workers wound down

	// The feeder must stop at the first failed write: only points already
	// in flight or queued may still complete. The emitter holds row 0 while
	// its write fails, the emission buffer holds at most workers×Width
	// more, and the feeder, blocked on the full buffer, has dispatched at
	// most one more compile group. Every point here differs from the
	// others in more than its gate, so each group is one point, and the
	// list uses one gate, so Width is 1.
	const maxComputed = workers*1 + 2
	computed := int(srv.CacheStats().Misses)
	if computed > maxComputed {
		t.Fatalf("computed %d of %d points after client drop, want at most %d: the held row, a full buffer and one dispatched group", computed, total, maxComputed)
	}
	if computed < 1 {
		t.Fatalf("computed %d points, want at least the first", computed)
	}
	if w.writes < 2 {
		t.Fatalf("writer saw %d writes, want at least the failing second", w.writes)
	}
}
