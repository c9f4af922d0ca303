package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sweep"
)

// testSpaceBody is a 12-point grammar (3 apps × 2 topologies × 2
// capacities, default FM-GS) of near-instant BV instances.
const testSpaceBody = `{
	"apps": ["BV@4", "BV@6", "BV@8"],
	"topologies": ["L2", "L3"],
	"capacities": [14, 18]
}`

const testSpaceSize = 12

// ndjson splits a sweep NDJSON stream into its three line kinds.
func ndjson(t *testing.T, r io.Reader) (header *SweepHeader, rows []SweepLine, summary *SweepSummary) {
	t.Helper()
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case bytes.Contains(line, []byte(`"sweep_id"`)) && bytes.Contains(line, []byte(`"grid_size"`)):
			if header != nil || len(rows) > 0 {
				t.Fatal("header must be the first line")
			}
			header = new(SweepHeader)
			if err := json.Unmarshal(line, header); err != nil {
				t.Fatalf("bad header %q: %v", line, err)
			}
		case bytes.Contains(line, []byte(`"done":true`)):
			if summary != nil {
				t.Fatal("summary must be unique")
			}
			summary = new(SweepSummary)
			if err := json.Unmarshal(line, summary); err != nil {
				t.Fatalf("bad summary %q: %v", line, err)
			}
		default:
			if summary != nil {
				t.Fatal("row after summary")
			}
			var row SweepLine
			if err := json.Unmarshal(line, &row); err != nil {
				t.Fatalf("bad row %q: %v", line, err)
			}
			rows = append(rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return header, rows, summary
}

func TestSpaceSweepStreamsInOrderWithCursors(t *testing.T) {
	srv, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"space":`+testSpaceBody+`}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	header, rows, summary := ndjson(t, resp.Body)
	if header == nil || summary == nil {
		t.Fatalf("header = %v, summary = %v", header, summary)
	}
	if header.GridSize != testSpaceSize || header.Start != 0 || header.End != testSpaceSize {
		t.Errorf("header = %+v", header)
	}
	if len(rows) != testSpaceSize {
		t.Fatalf("rows = %d, want %d", len(rows), testSpaceSize)
	}
	for i, row := range rows {
		if row.Seq != i {
			t.Errorf("row %d has seq %d: grammar rows must stream in expansion order", i, row.Seq)
		}
		if row.Cursor == "" {
			t.Errorf("row %d missing cursor", i)
		}
		if row.Error != "" || row.Result == nil {
			t.Errorf("row %d = %+v", i, row)
		}
	}
	if summary.Total != testSpaceSize || summary.Failed != 0 {
		t.Errorf("summary = %+v", summary)
	}
	if summary.SweepID != header.SweepID || summary.NextCursor != "" {
		t.Errorf("summary = %+v, header id %s", summary, header.SweepID)
	}
	if st := srv.CacheStats(); st.Misses != testSpaceSize {
		t.Errorf("unique computes = %d, want %d", st.Misses, testSpaceSize)
	}

	// The registry must report the finished sweep.
	status := decodeBody[SweepStatus](t, getOK(t, ts.URL+"/v1/sweeps/"+header.SweepID))
	if !status.Done || status.Emitted != testSpaceSize || status.Failed != 0 || status.ClientDropped {
		t.Errorf("status = %+v", status)
	}
	if status.SpaceHash != header.SpaceHash || status.GridSize != testSpaceSize {
		t.Errorf("status = %+v", status)
	}
	list := decodeBody[[]SweepStatus](t, getOK(t, ts.URL+"/v1/sweeps"))
	if len(list) != 1 || list[0].ID != header.SweepID {
		t.Errorf("sweep list = %+v", list)
	}
}

// TestSpaceSweepPoliciesAxis sweeps the policy axis: rows must stream in
// expansion order with policies varying fastest, carry working resume
// cursors, and every policy must produce a real result on every
// configuration.
func TestSpaceSweepPoliciesAxis(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{"space":{
		"apps": ["BV@6"],
		"topologies": ["L2", "L3"],
		"capacities": [14],
		"policies": ["baseline", "lookahead", "congestion"]
	}}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	header, rows, summary := ndjson(t, resp.Body)
	if header == nil || summary == nil || len(rows) != 6 {
		t.Fatalf("header = %v, rows = %d, summary = %v", header, len(rows), summary)
	}
	wantPolicies := []string{"", "lookahead", "congestion"} // baseline marshals as omitted
	for i, row := range rows {
		if row.Seq != i {
			t.Errorf("row %d has seq %d", i, row.Seq)
		}
		if got, want := string(row.Point.Policy), wantPolicies[i%3]; got != want {
			t.Errorf("row %d policy = %q, want %q (policy axis varies fastest)", i, got, want)
		}
		if row.Error != "" || row.Result == nil || row.Result.Fidelity <= 0 {
			t.Errorf("row %d = %+v", i, row)
		}
		if row.Cursor == "" {
			t.Errorf("row %d missing cursor", i)
		}
	}

	// Resume from the cursor after row 2: exactly rows 3..5 remain, same
	// points as the full stream.
	resumeBody := strings.TrimSuffix(strings.TrimSpace(body), "}") + `,"resume_from":"` + rows[2].Cursor + `"}`
	resp = postJSON(t, ts.URL+"/v1/sweep", resumeBody)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	_, rest, restSummary := ndjson(t, resp.Body)
	if len(rest) != 3 || restSummary == nil || restSummary.NextCursor != "" {
		t.Fatalf("resumed rows = %d, summary = %+v", len(rest), restSummary)
	}
	for i, row := range rest {
		if row.Seq != i+3 || row.Point != rows[i+3].Point {
			t.Errorf("resumed row %d = seq %d %+v, want seq %d %+v",
				i, row.Seq, row.Point, i+3, rows[i+3].Point)
		}
	}
}

func getOK(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	return resp
}

// captureDropWriter records successful writes and then fails, simulating
// a client whose connection dies mid-stream after receiving failAfter
// lines (json.Encoder issues exactly one Write per NDJSON line).
type captureDropWriter struct {
	header    http.Header
	buf       bytes.Buffer
	writes    int
	failAfter int
}

func (w *captureDropWriter) Header() http.Header {
	if w.header == nil {
		w.header = http.Header{}
	}
	return w.header
}

func (w *captureDropWriter) WriteHeader(int) {}

func (w *captureDropWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.failAfter {
		return 0, errors.New("write on closed connection")
	}
	return w.buf.Write(p)
}

// TestSpaceSweepResumeAfterClientDrop is the tentpole acceptance test:
// kill the client mid-stream, resume by the last received cursor, and the
// two row sets must partition the expansion exactly — no gaps, no
// duplicates, no recomputation of already-computed points.
func TestSpaceSweepResumeAfterClientDrop(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop after the header plus 4 rows.
	w := &captureDropWriter{failAfter: 5}
	req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(`{"workers":2,"space":`+testSpaceBody+`}`))
	srv.handleSweep(w, req)

	header, rows, summary := ndjson(t, &w.buf)
	if header == nil {
		t.Fatal("no header received before the drop")
	}
	if summary != nil {
		t.Fatal("dropped client must not receive a summary")
	}
	if len(rows) != 4 {
		t.Fatalf("received %d rows before drop, want 4", len(rows))
	}
	status := srv.sweeps.snapshotAll()[0]
	if !status.Done || !status.ClientDropped || status.Emitted != 4 {
		t.Errorf("status after drop = %+v", status)
	}
	computedBefore := srv.CacheStats().Misses

	// Resume with the cursor of the last row the "client" fully received.
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/sweep",
		`{"space":`+testSpaceBody+`,"resume_from":"`+rows[len(rows)-1].Cursor+`"}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("resume status = %d", resp.StatusCode)
	}
	rheader, rrows, rsummary := ndjson(t, resp.Body)
	if rheader == nil || rsummary == nil {
		t.Fatalf("resume header = %v, summary = %v", rheader, rsummary)
	}
	if rheader.SpaceHash != header.SpaceHash {
		t.Error("resume must target the same space")
	}
	if rheader.Start != 4 || rheader.End != testSpaceSize {
		t.Errorf("resume window = [%d, %d), want [4, %d)", rheader.Start, rheader.End, testSpaceSize)
	}

	// No gaps, no duplicates: the union covers every index exactly once.
	seen := map[int]int{}
	for _, row := range append(append([]SweepLine(nil), rows...), rrows...) {
		seen[row.Seq]++
	}
	for i := 0; i < testSpaceSize; i++ {
		if seen[i] != 1 {
			t.Errorf("seq %d streamed %d times, want exactly once", i, seen[i])
		}
	}
	if len(seen) != testSpaceSize {
		t.Errorf("streamed %d distinct seqs, want %d", len(seen), testSpaceSize)
	}

	// The resume recomputed nothing the first pass already evaluated:
	// total unique computes stay the grid size, and any points the first
	// pass had in flight beyond the drop resolve as cache hits now.
	if st := srv.CacheStats(); st.Misses != testSpaceSize {
		t.Errorf("unique computes = %d (was %d before resume), want %d",
			st.Misses, computedBefore, testSpaceSize)
	}
}

// TestSpaceSweepImmediateDropComputesNothing pins the laziness/residency
// contract: when the client is gone before the first line, the feeder
// must not expand any of the 96 points.
func TestSpaceSweepImmediateDropComputesNothing(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"workers":2,"space":{
		"apps": ["BV@4", "BV@6", "BV@8"],
		"topologies": ["L2", "L3"],
		"capacities": [14, 18],
		"gates": ["AM1", "AM2", "PM", "FM"],
		"reorders": ["GS", "IS"]
	}}`
	w := &captureDropWriter{failAfter: 0}
	srv.handleSweep(w, httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)))
	if st := srv.CacheStats(); st.Misses != 0 {
		t.Errorf("computed %d points for a client that never received a line", st.Misses)
	}
	status := srv.sweeps.snapshotAll()[0]
	if !status.Done || !status.ClientDropped || status.Emitted != 0 {
		t.Errorf("status = %+v", status)
	}
}

func TestSpaceSweepLimitPagination(t *testing.T) {
	srv, ts := newTestServer(t)

	var rows []SweepLine
	cursor := ""
	pages := 0
	for {
		body := `{"space":` + testSpaceBody + `,"limit":5`
		if cursor != "" {
			body += `,"resume_from":"` + cursor + `"`
		}
		body += `}`
		resp := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page %d status = %d", pages, resp.StatusCode)
		}
		_, prows, summary := ndjson(t, resp.Body)
		resp.Body.Close()
		if summary == nil {
			t.Fatalf("page %d missing summary", pages)
		}
		rows = append(rows, prows...)
		pages++
		if summary.NextCursor == "" {
			break
		}
		cursor = summary.NextCursor
		if pages > 10 {
			t.Fatal("pagination did not terminate")
		}
	}
	if pages != 3 { // 5 + 5 + 2
		t.Errorf("pages = %d, want 3", pages)
	}
	if len(rows) != testSpaceSize {
		t.Fatalf("rows = %d, want %d", len(rows), testSpaceSize)
	}
	for i, row := range rows {
		if row.Seq != i {
			t.Errorf("row %d has seq %d: pagination must neither skip nor repeat", i, row.Seq)
		}
	}
	// Pagination never recomputed: each point evaluated exactly once.
	if st := srv.CacheStats(); st.Misses != testSpaceSize || st.Hits != 0 {
		t.Errorf("cache stats = %+v, want %d misses and 0 hits", st, testSpaceSize)
	}
}

func TestSpaceSweepFailedPointsStreamAsRows(t *testing.T) {
	_, ts := newTestServer(t)
	// BV@8 is 9 qubits; capacity-2 traps cannot hold it on L1 or L3, so
	// those points fail to compile while the capacity-14 points succeed.
	// Two gates make each failing compile group two rows, and each row's
	// error must name its own point.
	body := `{"space":{"apps":["BV@8"],"topologies":["L1","L3"],"capacities":[2,14],"gates":["AM1","FM"]}}`
	resp := postJSON(t, ts.URL+"/v1/sweep", body)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	_, rows, summary := ndjson(t, resp.Body)
	if len(rows) != 8 || summary == nil {
		t.Fatalf("rows = %d, summary = %v", len(rows), summary)
	}
	var failed int
	for _, row := range rows {
		if row.Error != "" {
			failed++
			if !strings.HasPrefix(row.Error, row.Point.String()+": ") {
				t.Errorf("row %d: error %q does not name its point %s", row.Seq, row.Error, row.Point)
			}
		}
	}
	if failed == 0 || failed == len(rows) {
		t.Errorf("failed = %d of %d, want a mix", failed, len(rows))
	}
	if summary.Failed != failed {
		t.Errorf("summary.Failed = %d, want %d", summary.Failed, failed)
	}
}

func TestSpaceSweepBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
	}{
		{"points and space", `{"points":[{"app":"BV","topology":"L6","capacity":14}],"space":` + testSpaceBody + `}`},
		{"garbage cursor on points", `{"points":[{"app":"BV","topology":"L6","capacity":14}],"resume_from":"abc"}`},
		{"negative limit on points", `{"points":[{"app":"BV","topology":"L6","capacity":14}],"limit":-1}`},
		{"no points and no space", `{"points":[]}`},
		{"empty space", `{"space":{}}`},
		{"space with no capacities", `{"space":{"apps":["BV"],"topologies":["L2"]}}`},
		{"unknown app", `{"space":{"apps":["Nope"],"topologies":["L2"],"capacities":[14]}}`},
		{"bad sized app size", `{"space":{"apps":["QAOA@1"],"topologies":["L2"],"capacities":[14]}}`},
		{"oversized app", `{"space":{"apps":["QFT@4096"],"topologies":["L2"],"capacities":[14]}}`},
		{"bad topology", `{"space":{"apps":["BV"],"topologies":["Z9"],"capacities":[14]}}`},
		{"topology with trailing size", `{"space":{"apps":["BV"],"topologies":["G2x3x9"],"capacities":[14]}}`},
		{"app size with leading zero", `{"space":{"apps":["BV@08"],"topologies":["L2"],"capacities":[14]}}`},
		{"zero capacity", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[0]}}`},
		{"duplicate capacity", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14,14]}}`},
		{"bad gate", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14],"gates":["ZZ"]}}`},
		{"bad policy", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14],"policies":["nope"]}}`},
		{"duplicate policy", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14],"policies":["baseline","BASELINE"]}}`},
		{"unknown space field", `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14],"bogus":1}}`},
		{"negative limit", `{"space":` + testSpaceBody + `,"limit":-1}`},
		{"garbage cursor", `{"space":` + testSpaceBody + `,"resume_from":"garbage!!"}`},
	}
	for _, tc := range cases {
		resp := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		if body := decodeBody[errorBody](t, resp); body.Error == "" {
			t.Errorf("%s: missing error message", tc.name)
		}
	}

	// A cursor minted for one space must not resume a different one.
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"space":`+testSpaceBody+`,"limit":1}`)
	_, _, summary := ndjson(t, resp.Body)
	resp.Body.Close()
	if summary == nil || summary.NextCursor == "" {
		t.Fatal("expected a continuation cursor")
	}
	other := `{"space":{"apps":["BV"],"topologies":["L2"],"capacities":[14]},"resume_from":"` + summary.NextCursor + `"}`
	resp = postJSON(t, ts.URL+"/v1/sweep", other)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("foreign cursor: status = %d, want 400", resp.StatusCode)
	}
	if body := decodeBody[errorBody](t, resp); !strings.Contains(body.Error, "different design space") {
		t.Errorf("foreign cursor error = %q", body.Error)
	}

	// Bad sized sizes are request errors on every point-accepting
	// endpoint now, not evaluation outcomes (the ROADMAP bugfix).
	for _, tc := range []struct{ name, path, body string }{
		{"run sized size", "/v1/run", `{"point":{"app":"QAOA@1","topology":"L6","capacity":14}}`},
		{"run oversized", "/v1/run", `{"point":{"app":"QFT@4096","topology":"L6","capacity":14}}`},
		{"points sweep sized size", "/v1/sweep", `{"points":[{"app":"Adder@63","topology":"L6","capacity":14}]}`},
	} {
		resp := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestBadTopologySpecsRejected pins the family-table validation: a
// topology spec no family accepts is a 400 at /v1/run and both sweep
// forms, and an unmatched spec's error carries every family's grammar so
// the client can self-correct.
func TestBadTopologySpecsRejected(t *testing.T) {
	_, ts := newTestServer(t)
	badSpecs := []struct{ name, spec string }{
		{"unknown family", "Z9"},
		{"grid too small", "G1x3"},
		{"mesh too small", "M1x3"},
		{"mod k zero", "Mod0:L2"},
		{"mod of ring", "Mod2:R6"},
		{"mod of mesh", "Mod2:M2x2"},
		{"mod missing inner", "Mod2:"},
		{"linear zero", "L0"},
		{"trailing junk", "L6junk"},
		{"leading zero", "G02x03"},
		{"signed mod k", "Mod+2:L6"},
	}
	for _, bad := range badSpecs {
		for _, form := range []struct{ name, path, body string }{
			{"run", "/v1/run", `{"point":{"app":"BV","topology":"` + bad.spec + `","capacity":14}}`},
			{"points sweep", "/v1/sweep", `{"points":[{"app":"BV","topology":"` + bad.spec + `","capacity":14}]}`},
			{"space sweep", "/v1/sweep", `{"space":{"apps":["BV"],"topologies":["` + bad.spec + `"],"capacities":[14]}}`},
		} {
			resp := postJSON(t, ts.URL+form.path, form.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s via %s: status = %d, want 400", bad.name, form.name, resp.StatusCode)
			}
			if body := decodeBody[errorBody](t, resp); body.Error == "" {
				t.Errorf("%s via %s: missing error message", bad.name, form.name)
			}
		}
	}
	// An unmatched spec's error lists every family's grammar.
	resp := postJSON(t, ts.URL+"/v1/run", `{"point":{"app":"BV","topology":"Z9","capacity":14}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	body := decodeBody[errorBody](t, resp)
	for _, form := range []string{"L<n>", "G<r>x<c>", "R<n>", "M<r>x<c>", "Mod<k>:<inner>"} {
		if !strings.Contains(body.Error, form) {
			t.Errorf("error %q missing family form %s", body.Error, form)
		}
	}
	// And the new families are accepted end to end.
	resp = postJSON(t, ts.URL+"/v1/run", `{"point":{"app":"BV","topology":"Mod2:G2x3","capacity":14}}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("Mod2:G2x3 run: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSpaceSweepTooLargeRejected(t *testing.T) {
	srv, err := New(Config{MaxSpacePoints: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	// The cap bounds both forms.
	for _, tc := range []struct{ form, body string }{
		{"12-point grammar", `{"space":` + testSpaceBody + `}`},
		{"9-point list", `{"points":[` + strings.Repeat(`{"app":"BV","topology":"L6","capacity":20},`, 8) + `{"app":"BV","topology":"L6","capacity":20}]}`},
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.form, resp.StatusCode)
		}
		if body := decodeBody[errorBody](t, resp); !strings.Contains(body.Error, "exceeding the limit") {
			t.Errorf("%s: error = %q", tc.form, body.Error)
		}
	}
}

func TestSweepStatusUnknownID(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/sweeps/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestSweepRegistryEviction tracks maxTrackedSweeps sweeps, then streams
// one more. Registering it evicts the oldest finished sweep, or the oldest
// overall when every tracked sweep is still in flight; the list stays at
// maxTrackedSweeps entries, in registration order, and the evicted
// sweep's status is a 404.
func TestSweepRegistryEviction(t *testing.T) {
	for _, tc := range []struct {
		name     string
		finished []int // indexes of the tracked sweeps that have finished
		victim   int
	}{
		{"every sweep in flight", nil, 0},
		{"oldest finished sweep", []int{7, 100}, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, ts := newTestServer(t)
			grid, err := sweep.List([]core.Point{{App: "BV@4", Topology: "L2", Capacity: 14}})
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, maxTrackedSweeps)
			for i := range ids {
				ids[i] = srv.sweeps.add(grid, 0, 1, nil).status.ID
			}
			for _, i := range tc.finished {
				st, _ := srv.sweeps.get(ids[i])
				st.finish(false)
			}

			resp := postJSON(t, ts.URL+"/v1/sweep", `{"points":[{"app":"BV@4","topology":"L2","capacity":14}]}`)
			header, _, summary := ndjson(t, resp.Body)
			resp.Body.Close()
			if header == nil || summary == nil {
				t.Fatalf("header = %v, summary = %v", header, summary)
			}

			want := append(slices.Delete(slices.Clone(ids), tc.victim, tc.victim+1), header.SweepID)
			var got []string
			for _, st := range decodeBody[[]SweepStatus](t, getOK(t, ts.URL+"/v1/sweeps")) {
				got = append(got, st.ID)
			}
			if !slices.Equal(got, want) {
				t.Errorf("listed %d sweeps, want the %d tracked without sweep %d, newest last", len(got), len(want), tc.victim)
			}
			resp, err = http.Get(ts.URL + "/v1/sweeps/" + ids[tc.victim])
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("evicted sweep's status = %d, want 404", resp.StatusCode)
			}
			getOK(t, ts.URL+"/v1/sweeps/"+header.SweepID).Body.Close()
		})
	}
}
