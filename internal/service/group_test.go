package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sweep"
)

// goldenResults reads the repository's golden grid, compacted, keyed by
// point name.
func goldenResults(t *testing.T) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile("../../testdata/golden_results.json")
	if err != nil {
		t.Fatal(err)
	}
	var lines map[string]struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &lines); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(lines))
	for key, line := range lines {
		var buf bytes.Buffer
		if err := json.Compact(&buf, line.Result); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		out[key] = buf.Bytes()
	}
	return out
}

// programsIn counts the distinct compiled programs of a window: its
// points with the gate normalized away.
func programsIn(grid *sweep.Grid, start, end int64) uint64 {
	seen := make(map[core.Point]bool)
	for i := start; i < end; i++ {
		pt := grid.PointAt(i)
		pt.Gate = 0
		seen[pt] = true
	}
	return uint64(len(seen))
}

// TestPaperGrammarCompilesOncePerGroup streams the paper grammar through
// POST /v1/sweep on fresh servers. Every row computes once and matches
// the golden grid, while each window compiles once per compile group it
// intersects: 144 programs for the full 576-row grammar, and only the
// window's own groups for a shard or a limit page that splits a group.
func TestPaperGrammarCompilesOncePerGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("full paper grid; skipped in -short mode")
	}
	golden := goldenResults(t)
	space := experiments.PaperSpace()
	grid, err := space.Compile()
	if err != nil {
		t.Fatal(err)
	}
	spaceJSON, err := json.Marshal(space)
	if err != nil {
		t.Fatal(err)
	}
	// stream sends one request and checks its rows against the golden
	// grid, returning the summary and the server's cache counters.
	stream := func(t *testing.T, url, extra string, wantStart, wantEnd int64) (*SweepSummary, CacheResponse) {
		t.Helper()
		resp := postJSON(t, url+"/v1/sweep", `{"space":`+string(spaceJSON)+extra+`}`)
		defer resp.Body.Close()
		header, rows, summary := ndjson(t, resp.Body)
		if header == nil || summary == nil {
			t.Fatalf("header = %v, summary = %v", header, summary)
		}
		if header.Start != wantStart || header.End != wantEnd || int64(len(rows)) != wantEnd-wantStart {
			t.Fatalf("window [%d, %d) with %d rows, want [%d, %d)", header.Start, header.End, len(rows), wantStart, wantEnd)
		}
		for k, row := range rows {
			if row.Seq != int(wantStart)+k {
				t.Fatalf("row %d has seq %d", k, row.Seq)
			}
			got, err := json.Marshal(row.Result)
			if err != nil || row.Error != "" {
				t.Fatalf("%s: %v %s", row.Point, err, row.Error)
			}
			if want := golden[row.Point.String()]; !bytes.Equal(got, want) {
				t.Errorf("%s: result differs from the golden grid\n got %s\nwant %s", row.Point, got, want)
			}
		}
		return summary, decodeBody[CacheResponse](t, getOK(t, url+"/v1/cache"))
	}

	t.Run("full", func(t *testing.T) {
		_, ts := newTestServer(t)
		_, st := stream(t, ts.URL, "", 0, grid.Size())
		if st.Store.Computes != 576 || st.Compiles != 144 {
			t.Fatalf("computes = %d, compiles = %d, want 576 and 144", st.Store.Computes, st.Compiles)
		}
		// A fully cached group compiles nothing.
		summary, st := stream(t, ts.URL, "", 0, grid.Size())
		if summary.CacheHits != 576 || st.Store.Computes != 576 || st.Compiles != 144 {
			t.Fatalf("second pass: %d hits, computes = %d, compiles = %d", summary.CacheHits, st.Store.Computes, st.Compiles)
		}
	})

	t.Run("shard", func(t *testing.T) {
		_, ts := newTestServer(t)
		w, err := grid.Shard(1, 3)
		if err != nil {
			t.Fatal(err)
		}
		_, st := stream(t, ts.URL, `,"shard":{"index":1,"count":3}`, w.Start, w.End)
		if want := programsIn(grid, w.Start, w.End); st.Store.Computes != uint64(w.Len()) || st.Compiles != want {
			t.Fatalf("computes = %d, compiles = %d, want %d and %d", st.Store.Computes, st.Compiles, w.Len(), want)
		}
	})

	t.Run("limit", func(t *testing.T) {
		// Page one ends inside its last groups and page two starts inside
		// them, so those groups compile once per page.
		_, ts := newTestServer(t)
		summary, st := stream(t, ts.URL, `,"limit":5`, 0, 5)
		if want := programsIn(grid, 0, 5); st.Store.Computes != 5 || st.Compiles != want {
			t.Fatalf("page 1: computes = %d, compiles = %d, want 5 and %d", st.Store.Computes, st.Compiles, want)
		}
		_, st = stream(t, ts.URL, fmt.Sprintf(`,"limit":6,"resume_from":%q`, summary.NextCursor), 5, 11)
		if want := programsIn(grid, 0, 5) + programsIn(grid, 5, 11); st.Store.Computes != 11 || st.Compiles != want {
			t.Fatalf("page 2: computes = %d, compiles = %d, want 11 and %d", st.Store.Computes, st.Compiles, want)
		}
	})
}

// cancelDropWriter is a client whose connection dies after failAfter
// lines: its failing write cancels the request, as a closed connection
// does, and then records how many rows the server had computed.
type cancelDropWriter struct {
	captureDropWriter
	cancel   context.CancelFunc
	computed func() uint64
	atDrop   uint64
}

func (w *cancelDropWriter) Write(p []byte) (int, error) {
	n, err := w.captureDropWriter.Write(p)
	if err != nil && w.cancel != nil {
		w.cancel()
		w.cancel = nil
		w.atDrop = w.computed()
	}
	return n, err
}

// TestSpaceSweepDropStopsGroupsBetweenRows drops a client mid-stream on a
// grammar whose compile groups hold four rows (four gates). Each worker
// checks the request between the rows of its group, so after the drop at
// most one row per worker is computed — never the rest of every held
// group — and nothing past the drop is emitted.
func TestSpaceSweepDropStopsGroupsBetweenRows(t *testing.T) {
	const workers = 2
	body := fmt.Sprintf(`{"workers":%d,"space":{
		"apps": ["BV@4", "BV@6", "BV@8"],
		"topologies": ["L2", "L3"],
		"capacities": [14, 18],
		"gates": ["AM1", "AM2", "PM", "FM"]
	}}`, workers)
	for _, k := range []int{1, 2, 5, 9} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			srv, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			w := &cancelDropWriter{
				captureDropWriter: captureDropWriter{failAfter: 1 + k},
				cancel:            cancel,
				computed:          func() uint64 { return srv.StoreStats().Computes },
			}
			req := httptest.NewRequest("POST", "/v1/sweep", strings.NewReader(body)).WithContext(ctx)
			srv.handleSweep(w, req) // returns only once every worker wound down

			_, rows, summary := ndjson(t, &w.buf)
			if len(rows) != k || summary != nil {
				t.Fatalf("client received %d rows and summary %v, want %d rows and none", len(rows), summary, k)
			}
			if status := srv.sweeps.snapshotAll()[0]; !status.ClientDropped || status.Emitted != int64(k) {
				t.Errorf("status = %+v", status)
			}
			st := srv.StoreStats()
			if st.Computes > w.atDrop+workers {
				t.Errorf("computed %d rows, %d of them after the drop: want at most one per worker (%d)",
					st.Computes, st.Computes-w.atDrop, workers)
			}
			if st.Memory.Entries != int(st.Computes) {
				t.Errorf("cache holds %d entries for %d computes", st.Memory.Entries, st.Computes)
			}
		})
	}
}
