package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// point [0,100) holds PointAt [5,10) and Toolflow.Do [10,95); Toolflow.Do
	// holds Store.Do [20,90), which holds compute [30,80). A second point
	// [200,230) holds only PointAt [200,202).
	spans := []span{
		{Name: "point", Start: 0, End: 100},
		{Name: "sweep.PointAt", Start: 5, End: 10, Parent: 1},
		{Name: "core.Toolflow.Do", Start: 10, End: 95, Parent: 1},
		{Name: "cache.Store.Do", Start: 20, End: 90, Parent: 3},
		{Name: "core.compute", Start: 30, End: 80, Parent: 4},
		{Name: "point", Start: 200, End: 230},
		{Name: "sweep.PointAt", Start: 200, End: 202, Parent: 6},
	}
	want := map[string]layerTime{
		"point":            {calls: 2, selfNS: (100 - 5 - 85) + (30 - 2)},
		"sweep.PointAt":    {calls: 2, selfNS: 5 + 2},
		"core.Toolflow.Do": {calls: 1, selfNS: 85 - 70},
		"cache.Store.Do":   {calls: 1, selfNS: 70 - 50},
		"core.compute":     {calls: 1, selfNS: 50},
	}
	got := selfTimes(spans)
	if len(got) != len(want) {
		t.Errorf("selfTimes has %d names, want %d", len(got), len(want))
	}
	var total int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: got %+v, want %+v", name, got[name], w)
		}
		total += got[name].selfNS
	}
	if total != 100+30 {
		t.Errorf("self times sum to %d, want the roots' 130", total)
	}
}

func TestRecorderNilIsNoOp(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0, 0); id != 0 {
		t.Errorf("nil recorder returned span id %d", id)
	}
	r.end(0)

	r = newRecorder()
	a := r.begin("a", 0, 7)
	b := r.begin("b", a, 7)
	time.Sleep(time.Millisecond)
	r.end(b)
	r.end(a)
	if len(r.spans) != 2 || r.spans[1].Parent != a || r.spans[0].End < r.spans[1].End || r.spans[1].End-r.spans[1].Start < int64(time.Millisecond) {
		t.Errorf("spans = %+v", r.spans)
	}
}
