package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Parent is the 1-based index of the
// enclosing span in the recorder, 0 for a root; Point identifies the
// design point or request the call served.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Point  int    `json:"point"`
}

// recorder holds spans in memory until the run ends. A nil recorder
// records nothing, so the untraced replay runs the same code.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id for end and for children.
func (r *recorder) begin(name string, parent, point int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent, Point: point})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = now
}

// layerTime is the call count and summed self time of one span name.
type layerTime struct {
	calls  int
	selfNS int64
}

func (l layerTime) ms() float64 { return float64(l.selfNS) / 1e6 }

// selfTimes sums, per span name, each span's duration minus the durations
// of its direct children. Children of one span never overlap here: every
// span's children run one after another on the goroutine that opened it.
func selfTimes(spans []span) map[string]layerTime {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent-1] += s.End - s.Start
		}
	}
	out := make(map[string]layerTime)
	for i, s := range spans {
		lt := out[s.Name]
		lt.calls++
		lt.selfNS += s.End - s.Start - child[i]
		out[s.Name] = lt
	}
	return out
}

// writeTrace saves the spans of the traced and the reconciling replay as
// JSON.
func writeTrace(path, workload string, traced, reconciled []span) error {
	raw, err := json.Marshal(struct {
		Workload   string `json:"workload"`
		Traced     []span `json:"traced"`
		Reconciled []span `json:"reconciled"`
	}{workload, traced, reconciled})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
