package qccd

// Golden wire transcript: a fixed script of requests sent in order to an
// in-process sweep service, with every exchange's method, path, body,
// status and response lines recorded in testdata/golden_wire.ndjson.
// Fields that vary from run to run (sweep ids, elapsed and uptime, the Go
// version) are masked, and every sweep runs on one worker, so a row's
// cached flag depends only on the requests before it. Any change to what
// the daemon puts on the wire shows up as a diff of this file.
//
// Regenerate with:
//
//	go test -run TestGoldenWire -update-golden .

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
	"repro/internal/service"
)

const goldenWirePath = "testdata/golden_wire.ndjson"

// wireStep is one request of the script. In a body, NEXT stands for the
// previous response's next_cursor ("none" if it had none), and in a
// path, ID for the first sweep id the script saw.
type wireStep struct {
	method, path, body string
}

func wireScript(t *testing.T) []wireStep {
	paper, err := json.Marshal(experiments.PaperSpace())
	if err != nil {
		t.Fatal(err)
	}
	const (
		bvG14 = `{"app":"BV","topology":"G2x3","capacity":14}`
		bvG18 = `{"app":"BV","topology":"G2x3","capacity":18}`
		page  = `[{"app":"BV","topology":"L6","capacity":26},{"app":"BV","topology":"L6","capacity":30},` +
			`{"app":"BV","topology":"L6","capacity":34},{"app":"BV","topology":"G2x3","capacity":22}]`
		small = `{"apps":["BV"],"topologies":["L6"],"capacities":[14,18,22]}`
	)
	post := func(path, body string) wireStep { return wireStep{"POST", path, body} }
	get := func(path string) wireStep { return wireStep{"GET", path, ""} }
	return []wireStep{
		post("/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":20}}`),
		post("/v1/run", `{"point":{"app":"QFT","topology":"L2","capacity":14}}`),
		post("/v1/run", `{"point":{"app":"BV","topology":"L6","capacity":0}}`),
		post("/v1/sweep", `{"space":`+string(paper)+`,"shard":{"index":0,"count":96},"workers":1}`),
		post("/v1/sweep", `{"space":`+small+`,"limit":2,"workers":1}`),
		post("/v1/sweep", `{"space":`+small+`,"resume_from":"NEXT","workers":1}`),
		post("/v1/sweep", `{"space":{"apps":["QFT"],"topologies":["L2"],"capacities":[12,16]},"workers":1}`),
		get("/v1/apps"),
		get("/v1/topologies"),
		get("/v1/policies"),
		get("/v1/params"),
		get("/v1/cache"),
		get("/healthz"),
		post("/v1/sweep", `{"points":[`+bvG14+`,`+bvG18+`,`+bvG14+`],"workers":1}`),
		post("/v1/sweep", `{"points":`+page+`,"limit":2,"workers":1}`),
		post("/v1/sweep", `{"points":`+page+`,"resume_from":"NEXT","workers":1}`),
		post("/v1/sweep", `{"points":`+page+`,"shard":{"index":1,"count":2},"workers":1}`),
		get("/v1/sweeps"),
		get("/v1/sweeps/ID"),
	}
}

// wireMasks replace the fields of a response that differ between runs.
var wireMasks = []struct {
	re   *regexp.Regexp
	with string
}{
	{regexp.MustCompile(`"(sweep_id|id)":"[^"]*"`), `"$1":"*"`},
	{regexp.MustCompile(`"(elapsed_us|uptime_s)":[-+.0-9eE]+`), `"$1":0`},
	{regexp.MustCompile(`"go_version":"[^"]*"`), `"go_version":"*"`},
}

var (
	nextCursorRe = regexp.MustCompile(`"next_cursor":"([^"]*)"`)
	sweepIDRe    = regexp.MustCompile(`"sweep_id":"([^"]*)"`)
)

// wireExchange is the transcript line that opens one exchange; the
// response's lines follow it.
type wireExchange struct {
	Method string          `json:"method"`
	Path   string          `json:"path"`
	Body   json.RawMessage `json:"body,omitempty"`
	Status int             `json:"status"`
}

// recordWire runs the script against a fresh server and returns the
// masked transcript.
func recordWire(t *testing.T) []byte {
	srv, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	var out bytes.Buffer
	next, firstID := "none", ""
	for _, step := range wireScript(t) {
		body := strings.ReplaceAll(step.body, "NEXT", next)
		req := httptest.NewRequest(step.method, strings.ReplaceAll(step.path, "ID", firstID), strings.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		head, err := json.Marshal(wireExchange{
			Method: step.method, Path: strings.ReplaceAll(step.path, "ID", "*"),
			Body: json.RawMessage(body), Status: rec.Code,
		})
		if err != nil {
			t.Fatalf("%s %s: %v", step.method, step.path, err)
		}
		out.Write(head)
		out.WriteByte('\n')
		next = "none"
		sc := bufio.NewScanner(rec.Body)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if m := nextCursorRe.FindSubmatch(line); m != nil {
				next = string(m[1])
			}
			if m := sweepIDRe.FindSubmatch(line); m != nil && firstID == "" {
				firstID = string(m[1])
			}
			for _, m := range wireMasks {
				line = m.re.ReplaceAll(line, []byte(m.with))
			}
			out.Write(line)
			out.WriteByte('\n')
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("%s %s: %v", step.method, step.path, err)
		}
		if step.method == http.MethodGet && rec.Code != http.StatusOK {
			t.Errorf("%s %s: status %d", step.method, step.path, rec.Code)
		}
	}
	return out.Bytes()
}

// TestGoldenWire pins the daemon's wire format: the transcript of the
// fixed script must equal the golden file line for line.
func TestGoldenWire(t *testing.T) {
	got := recordWire(t)
	if *updateGolden {
		if err := os.WriteFile(goldenWirePath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenWirePath)
		return
	}
	want, err := os.ReadFile(goldenWirePath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d differs:\n got: %s\nwant: %s", goldenWirePath, i+1, g, w)
		}
	}
}
