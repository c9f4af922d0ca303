package service

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// testList is a points sweep with gate siblings, a repeated point and a
// point that fails to compile.
const testList = `[
	{"app":"BV","topology":"L6","capacity":14,"gate":"FM"},
	{"app":"BV","topology":"L6","capacity":18},
	{"app":"BV","topology":"L6","capacity":14,"gate":"AM2"},
	{"app":"QFT","topology":"L2","capacity":14},
	{"app":"BV","topology":"G2x3","capacity":14},
	{"app":"BV","topology":"L6","capacity":14,"gate":"FM"},
	{"app":"BV","topology":"L6","capacity":14,"gate":"PM"}
]`

const testListSize = 7

// listRows posts a points sweep of testList with extra request fields
// and returns its rows with the fields that vary between requests of
// one sweep (elapsed time and cache hits) masked, plus its summary.
func listRows(t *testing.T, url, extra string) ([]SweepLine, *SweepSummary) {
	t.Helper()
	resp := postJSON(t, url+"/v1/sweep", `{"points":`+testList+extra+`}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status = %d", extra, resp.StatusCode)
	}
	header, rows, summary := ndjson(t, resp.Body)
	if header == nil || summary == nil {
		t.Fatalf("%s: missing header or summary", extra)
	}
	if header.GridSize != testListSize || int64(len(rows)) != header.End-header.Start {
		t.Fatalf("%s: header %+v for %d rows", extra, header, len(rows))
	}
	for i := range rows {
		rows[i].ElapsedUS, rows[i].Cached = 0, false
	}
	return rows, summary
}

// TestListSweepPagesLikeOneRequest pins paging on the points form: paged
// by limit and next_cursor, resumed from any row's cursor, or split into
// shards, a list streams the rows of one unpaged request.
func TestListSweepPagesLikeOneRequest(t *testing.T) {
	_, ts := newTestServer(t)
	all, _ := listRows(t, ts.URL, `,"workers":2`)
	if len(all) != testListSize {
		t.Fatalf("unpaged sweep streamed %d rows, want %d", len(all), testListSize)
	}
	if all[3].Error == "" {
		t.Fatal("QFT on L2 must fail to compile")
	}
	check := func(what string, got, want []SweepLine) {
		t.Helper()
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streamed %d rows unlike the unpaged request's %d", what, len(got), len(want))
		}
	}

	// A page computes only its own rows, though the rest of row 0's
	// compile group lies past a one-row limit.
	fresh, freshTS := newTestServer(t)
	listRows(t, freshTS.URL, `,"limit":1`)
	if n := fresh.StoreStats().Computes; n != 1 {
		t.Errorf("a one-row page computed %d points, want 1", n)
	}

	for _, limit := range []int{1, 2, 3, testListSize} {
		var got []SweepLine
		for resume := ""; ; {
			rows, summary := listRows(t, ts.URL, fmt.Sprintf(`,"limit":%d%s`, limit, resume))
			got = append(got, rows...)
			if summary.NextCursor == "" {
				break
			}
			resume = `,"resume_from":"` + summary.NextCursor + `"`
		}
		check(fmt.Sprintf("limit %d", limit), got, all)
	}
	for k, row := range all {
		rows, _ := listRows(t, ts.URL, `,"resume_from":"`+row.Cursor+`"`)
		check(fmt.Sprintf("resume after row %d", k), rows, all[k+1:])
	}
	for _, count := range []int{1, 2, 3, testListSize + 2} {
		var got []SweepLine
		for i := 0; i < count; i++ {
			rows, _ := listRows(t, ts.URL, fmt.Sprintf(`,"shard":{"index":%d,"count":%d}`, i, count))
			got = append(got, rows...)
		}
		check(fmt.Sprintf("%d shards", count), got, all)
	}
}

// TestCursorsDoNotCrossForms pins that a list's cursor resumes only that
// list: presented with a grammar, or a grammar's with a list, it is a
// 400.
func TestCursorsDoNotCrossForms(t *testing.T) {
	_, ts := newTestServer(t)
	list, _ := listRows(t, ts.URL, `,"limit":1`)
	resp := postJSON(t, ts.URL+"/v1/sweep", `{"space":`+testSpaceBody+`,"limit":1}`)
	_, grammar, _ := ndjson(t, resp.Body)
	resp.Body.Close()
	if len(list) != 1 || len(grammar) != 1 {
		t.Fatalf("streamed %d list rows and %d grammar rows, want 1 and 1", len(list), len(grammar))
	}
	for name, body := range map[string]string{
		"list cursor with a grammar":    `{"space":` + testSpaceBody + `,"resume_from":"` + list[0].Cursor + `"}`,
		"grammar cursor with a list":    `{"points":` + testList + `,"resume_from":"` + grammar[0].Cursor + `"}`,
		"list cursor with another list": `{"points":[{"app":"BV","topology":"L6","capacity":14}],"resume_from":"` + list[0].Cursor + `"}`,
	} {
		resp := postJSON(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		if e := decodeBody[errorBody](t, resp); !strings.Contains(e.Error, "different design space") {
			t.Errorf("%s: error = %q", name, e.Error)
		}
	}
}
