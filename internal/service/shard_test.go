package service

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// shardBody builds the grammar sweep request for one shard of the test
// space.
func shardBody(extra string) string {
	return `{"space":` + testSpaceBody + extra + `}`
}

func TestShardFanOutCoversGridExactly(t *testing.T) {
	for _, count := range []int{1, 2, 3, 5, testSpaceSize, testSpaceSize + 3} {
		t.Run(fmt.Sprintf("count=%d", count), func(t *testing.T) {
			_, ts := newTestServer(t)
			seen := make(map[int]int)
			total := 0
			for i := 0; i < count; i++ {
				body := shardBody(fmt.Sprintf(`,"shard":{"index":%d,"count":%d}`, i, count))
				resp := postJSON(t, ts.URL+"/v1/sweep", body)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("shard %d: status = %d", i, resp.StatusCode)
				}
				header, rows, summary := ndjson(t, resp.Body)
				resp.Body.Close()
				if header == nil || summary == nil {
					t.Fatalf("shard %d: missing header or summary", i)
				}
				if header.GridSize != testSpaceSize {
					t.Fatalf("shard %d: grid size %d", i, header.GridSize)
				}
				if header.ShardIndex == nil || *header.ShardIndex != i ||
					header.ShardCount == nil || *header.ShardCount != count {
					t.Fatalf("shard %d: header echo = %v/%v", i, header.ShardIndex, header.ShardCount)
				}
				// A completed shard never offers a continuation cursor: its
				// window is done even though the grid continues.
				if summary.NextCursor != "" {
					t.Fatalf("shard %d: summary offered next_cursor %q", i, summary.NextCursor)
				}
				if int64(len(rows)) != header.End-header.Start {
					t.Fatalf("shard %d: %d rows for window [%d, %d)", i, len(rows), header.Start, header.End)
				}
				for _, row := range rows {
					seen[row.Seq]++
					total++
					if row.Error != "" {
						t.Fatalf("seq %d: %s", row.Seq, row.Error)
					}
				}
			}
			if total != testSpaceSize {
				t.Fatalf("union has %d rows, want %d", total, testSpaceSize)
			}
			for seq := 0; seq < testSpaceSize; seq++ {
				if seen[seq] != 1 {
					t.Fatalf("seq %d streamed %d times", seq, seen[seq])
				}
			}
		})
	}
}

func TestShardExplicitWindow(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(`,"shard":{"start":3,"end":7}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	header, rows, _ := ndjson(t, resp.Body)
	resp.Body.Close()
	if header.Start != 3 || header.End != 7 {
		t.Fatalf("window = [%d, %d)", header.Start, header.End)
	}
	if header.ShardIndex != nil || header.ShardCount != nil {
		t.Error("explicit window must not echo shard index/count")
	}
	if len(rows) != 4 || rows[0].Seq != 3 || rows[3].Seq != 6 {
		t.Fatalf("rows = %d, first %d, last %d", len(rows), rows[0].Seq, rows[len(rows)-1].Seq)
	}
}

// TestShardResumeClampsToWindow is the regression test for cursor/shard
// composition: a cursor must never leak rows from outside the shard's
// window, wherever it was minted.
func TestShardResumeClampsToWindow(t *testing.T) {
	_, ts := newTestServer(t)
	// Mint cursors against the full expansion: cursor after row k resumes
	// at k+1.
	resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(``))
	_, fullRows, _ := ndjson(t, resp.Body)
	resp.Body.Close()
	if len(fullRows) != testSpaceSize {
		t.Fatalf("reference sweep: %d rows", len(fullRows))
	}
	cursorAfter := func(seq int) string { return fullRows[seq].Cursor }

	// The middle shard of 3: window [4, 8) of the 12-point space.
	shard := `,"shard":{"index":1,"count":3}`
	cases := []struct {
		name   string
		cursor string
		want   []int // expected seqs
	}{
		{"cursor before window clamps to window start", cursorAfter(0), []int{4, 5, 6, 7}},
		{"cursor inside window resumes exactly", cursorAfter(5), []int{6, 7}},
		{"cursor at window end streams nothing", cursorAfter(7), nil},
		{"cursor past window streams nothing, not other shards' rows", cursorAfter(9), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(shard+`,"resume_from":"`+tc.cursor+`"`))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			header, rows, summary := ndjson(t, resp.Body)
			resp.Body.Close()
			var got []int
			for _, row := range rows {
				got = append(got, row.Seq)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("rows = %v, want %v (window [%d, %d))", got, tc.want, header.Start, header.End)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("rows = %v, want %v", got, tc.want)
				}
			}
			if summary == nil || !summary.Done {
				t.Fatal("missing summary")
			}
			if summary.NextCursor != "" {
				t.Errorf("resumed shard offered next_cursor %q", summary.NextCursor)
			}
		})
	}
}

func TestShardWithLimitPaginatesInsideWindow(t *testing.T) {
	_, ts := newTestServer(t)
	shard := `,"shard":{"index":1,"count":3}` // window [4, 8)
	resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(shard+`,"limit":2`))
	header, rows, summary := ndjson(t, resp.Body)
	resp.Body.Close()
	if header.Start != 4 || header.End != 6 {
		t.Fatalf("limited window = [%d, %d), want [4, 6)", header.Start, header.End)
	}
	if len(rows) != 2 || rows[0].Seq != 4 || rows[1].Seq != 5 {
		t.Fatalf("rows = %+v", rows)
	}
	if summary.NextCursor == "" {
		t.Fatal("limited shard must offer a continuation cursor")
	}
	// The continuation finishes the window — and only the window.
	resp = postJSON(t, ts.URL+"/v1/sweep", shardBody(shard+`,"resume_from":"`+summary.NextCursor+`"`))
	_, rows, summary = ndjson(t, resp.Body)
	resp.Body.Close()
	if len(rows) != 2 || rows[0].Seq != 6 || rows[1].Seq != 7 {
		t.Fatalf("continuation rows = %+v", rows)
	}
	if summary.NextCursor != "" {
		t.Errorf("finished shard offered next_cursor %q", summary.NextCursor)
	}
}

// TestMaxLimitStreamsRestOfWindow pins the limit check past a nonzero
// window start: a limit of MaxInt64 must not overflow start+limit, so a
// shard or a resume streams the rest of its window and ends with a
// summary that offers no continuation.
func TestMaxLimitStreamsRestOfWindow(t *testing.T) {
	_, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(``))
	_, fullRows, _ := ndjson(t, resp.Body)
	resp.Body.Close()
	if len(fullRows) != testSpaceSize {
		t.Fatalf("reference sweep: %d rows", len(fullRows))
	}
	const maxLimit = `,"limit":9223372036854775807`
	cases := []struct {
		name  string
		extra string
		start int
	}{
		{"shard", `,"shard":{"index":1,"count":2}`, 6},
		{"resume", `,"resume_from":"` + fullRows[3].Cursor + `"`, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(tc.extra+maxLimit))
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d", resp.StatusCode)
			}
			header, rows, summary := ndjson(t, resp.Body)
			if header == nil || header.Start != int64(tc.start) || header.End != testSpaceSize {
				t.Fatalf("header = %+v, want window [%d, %d)", header, tc.start, testSpaceSize)
			}
			if len(rows) != testSpaceSize-tc.start {
				t.Fatalf("%d rows, want %d", len(rows), testSpaceSize-tc.start)
			}
			for i, row := range rows {
				if row.Seq != tc.start+i {
					t.Fatalf("row %d has seq %d, want %d", i, row.Seq, tc.start+i)
				}
			}
			if summary == nil {
				t.Fatal("missing summary")
			}
			if summary.NextCursor != "" {
				t.Errorf("finished window offered next_cursor %q", summary.NextCursor)
			}
		})
	}
}

func TestShardBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct{ name, body string }{
		{"empty shard", shardBody(`,"shard":{}`)},
		{"index without count", shardBody(`,"shard":{"index":0}`)},
		{"count without index", shardBody(`,"shard":{"count":2}`)},
		{"mixed forms", shardBody(`,"shard":{"index":0,"count":2,"start":0,"end":4}`)},
		{"start without end", shardBody(`,"shard":{"start":2}`)},
		{"zero count", shardBody(`,"shard":{"index":0,"count":0}`)},
		{"negative count", shardBody(`,"shard":{"index":0,"count":-2}`)},
		{"index at count", shardBody(`,"shard":{"index":2,"count":2}`)},
		{"negative index", shardBody(`,"shard":{"index":-1,"count":2}`)},
		{"window out of range", shardBody(`,"shard":{"start":0,"end":99}`)},
		{"inverted window", shardBody(`,"shard":{"start":5,"end":4}`)},
		{"negative start", shardBody(`,"shard":{"start":-1,"end":4}`)},
		{"unknown shard field", shardBody(`,"shard":{"index":0,"count":2,"bogus":1}`)},
		{"points window out of range", `{"points":[{"app":"BV","topology":"L6","capacity":14}],"shard":{"start":0,"end":2}}`},
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
}

// TestShardCapAppliesToWindowNotGrid pins that MaxSpacePoints bounds what
// one request streams: a space too large to sweep whole is admissible
// shard by shard — the scale-out path for TITAN-style grids.
func TestShardCapAppliesToWindowNotGrid(t *testing.T) {
	srv, err := New(Config{MaxSpacePoints: 4})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	ts := hs.URL
	// The whole 12-point space exceeds the cap of 4...
	resp := postJSON(t, ts+"/v1/sweep", shardBody(``))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unsharded status = %d, want 400", resp.StatusCode)
	}
	if body := decodeBody[errorBody](t, resp); !strings.Contains(body.Error, "exceeding the limit") {
		t.Fatalf("error = %q", body.Error)
	}
	// ...but each shard of 3 covers 4 points and is admissible.
	for i := 0; i < 3; i++ {
		resp := postJSON(t, ts+"/v1/sweep", shardBody(fmt.Sprintf(`,"shard":{"index":%d,"count":3}`, i)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("shard %d status = %d", i, resp.StatusCode)
		}
		_, rows, _ := ndjson(t, resp.Body)
		resp.Body.Close()
		if len(rows) != 4 {
			t.Fatalf("shard %d rows = %d", i, len(rows))
		}
	}
}

// TestMultiModuleSweepGrammarShardResume drives a photonically linked
// multi-module topology through the whole server-side sweep machinery:
// grammar expansion, index-window sharding, and cursor resume.
func TestMultiModuleSweepGrammarShardResume(t *testing.T) {
	_, ts := newTestServer(t)
	// At capacity 4 each trap holds 2 ions plus the mapper's 2 buffer
	// slots, so BV@6 overflows one 2-trap module and must cross the link.
	space := `{
		"apps": ["BV@4", "BV@6"],
		"topologies": ["L4", "Mod2:L2"],
		"capacities": [4]
	}` // 4 points, Mod2:L2 at seqs 1 and 3
	body := func(extra string) string { return `{"space":` + space + extra + `}` }

	// Full grammar expansion.
	resp := postJSON(t, ts.URL+"/v1/sweep", body(``))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	header, rows, summary := ndjson(t, resp.Body)
	resp.Body.Close()
	if header.GridSize != 4 || len(rows) != 4 || !summary.Done {
		t.Fatalf("grid = %d, rows = %d", header.GridSize, len(rows))
	}
	modRows := 0
	for _, row := range rows {
		if row.Point.Topology == "Mod2:L2" {
			modRows++
			if row.Error != "" {
				t.Errorf("Mod2:L2 seq %d failed: %s", row.Seq, row.Error)
				continue
			}
			if row.Point.App == "BV@6" && (row.Result == nil || row.Result.LinkTransits == 0) {
				t.Errorf("Mod2:L2 seq %d: no link transits; BV@6 overflows one module and must cross the link", row.Seq)
			}
		}
	}
	if modRows != 2 {
		t.Fatalf("multi-module rows = %d, want 2", modRows)
	}

	// The shard holding the last Mod point, paginated and resumed.
	shard := `,"shard":{"index":1,"count":2}` // window [2, 4)
	resp = postJSON(t, ts.URL+"/v1/sweep", body(shard+`,"limit":1`))
	_, rows, summary = ndjson(t, resp.Body)
	resp.Body.Close()
	if len(rows) != 1 || rows[0].Seq != 2 || summary.NextCursor == "" {
		t.Fatalf("limited shard: rows = %+v, cursor = %q", rows, summary.NextCursor)
	}
	resp = postJSON(t, ts.URL+"/v1/sweep", body(shard+`,"resume_from":"`+summary.NextCursor+`"`))
	_, rows, summary = ndjson(t, resp.Body)
	resp.Body.Close()
	if len(rows) != 1 || rows[0].Seq != 3 || rows[0].Point.Topology != "Mod2:L2" {
		t.Fatalf("resumed shard rows = %+v", rows)
	}
	if rows[0].Error != "" || summary.NextCursor != "" {
		t.Fatalf("resumed Mod row = %+v, next = %q", rows[0], summary.NextCursor)
	}
}

func TestShardProgressRegistryPerShard(t *testing.T) {
	srv, ts := newTestServer(t)
	resp := postJSON(t, ts.URL+"/v1/sweep", shardBody(`,"shard":{"index":2,"count":4}`))
	header, _, _ := ndjson(t, resp.Body)
	resp.Body.Close()

	st, ok := srv.sweeps.get(header.SweepID)
	if !ok {
		t.Fatal("sweep not registered")
	}
	snap := st.snapshot()
	if snap.ShardIndex == nil || *snap.ShardIndex != 2 || snap.ShardCount == nil || *snap.ShardCount != 4 {
		t.Errorf("registry shard echo = %v/%v", snap.ShardIndex, snap.ShardCount)
	}
	if !snap.Done || snap.Emitted != snap.End-snap.Start {
		t.Errorf("snapshot = %+v", snap)
	}
}
