package sim

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

func TestRunTracedMatchesRun(t *testing.T) {
	c, err := apps.QAOA(16, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := device.NewLinear(4, 6)
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	params := models.Default()
	plain, err := Run(p, d, params)
	if err != nil {
		t.Fatal(err)
	}
	traced, trace, err := RunTraced(p, d, params)
	if err != nil {
		t.Fatal(err)
	}
	plainJSON, err := json.Marshal(plain)
	if err != nil {
		t.Fatal(err)
	}
	tracedJSON, err := json.Marshal(traced)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plainJSON, tracedJSON) {
		t.Errorf("traced result differs from plain result:\n%s\n%s", tracedJSON, plainJSON)
	}
	if len(trace) != len(p.Ops) {
		t.Fatalf("trace entries = %d, want %d", len(trace), len(p.Ops))
	}
	if err := trace.Validate(); err != nil {
		t.Error(err)
	}
	// The trace explains the result's wait and busy figures to the bit
	// when summed in the result's orders: waits by op ID, busy times by
	// completion, which is (End, op ID) but for zero-length ops.
	byOp := slices.Clone(trace)
	slices.SortFunc(byOp, func(a, b TraceEntry) int { return a.Op - b.Op })
	var totalWait, maxWait float64
	for _, e := range byOp {
		totalWait += e.Wait
		maxWait = math.Max(maxWait, e.Wait)
		// An op is ready when its last dependency ends, so its wait is
		// its start less that end.
		var ready float64
		for _, dep := range p.Ops[e.Op].Deps() {
			ready = math.Max(ready, byOp[dep].End)
		}
		if e.Wait != e.Start-ready {
			t.Errorf("op %d waited %v, started at %v, ready at %v", e.Op, e.Wait, e.Start, ready)
		}
	}
	byEnd := slices.Clone(byOp)
	slices.SortStableFunc(byEnd, func(a, b TraceEntry) int { return cmp.Compare(a.End, b.End) })
	var busy [2]float64
	for _, e := range byEnd {
		busy[e.Kind.Category()] += e.End - e.Start
	}
	if totalWait != plain.TotalWaitTime || maxWait != plain.MaxWaitTime {
		t.Errorf("trace waits sum to %v (max %v), result has %v (max %v)",
			totalWait, maxWait, plain.TotalWaitTime, plain.MaxWaitTime)
	}
	if busy[isa.CatCompute] != plain.BusyCompute || busy[isa.CatComm] != plain.BusyComm {
		t.Errorf("trace busy compute/comm = %v/%v, result has %v/%v",
			busy[isa.CatCompute], busy[isa.CatComm], plain.BusyCompute, plain.BusyComm)
	}
}

func TestTraceResourceExclusivityProperty(t *testing.T) {
	// Property: for random programs, no resource is ever double-booked
	// and waits are non-negative — the simulator's core physical
	// guarantee.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(10) + 6
		b := circuit.NewBuilder("p", n)
		for q := 0; q < n; q++ {
			b.H(q)
		}
		for i := 0; i < 40; i++ {
			a := rng.Intn(n)
			c := rng.Intn(n - 1)
			if c >= a {
				c++
			}
			b.CNOT(a, c)
		}
		circ := b.MustCircuit()
		d, err := device.NewLinear(3, n/2+2)
		if err != nil {
			return false
		}
		prog, err := compiler.Compile(circ, d, compiler.DefaultOptions())
		if err != nil {
			return false
		}
		_, trace, err := RunTraced(prog, d, models.Default())
		if err != nil {
			return false
		}
		return trace.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestTraceCSV(t *testing.T) {
	c := pinned("csv", 4).CNOT(1, 2).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := RunTraced(p, d, models.Default())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := trace.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "op,kind,resource,start_us,end_us,wait_us\n") {
		t.Errorf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "split") || !strings.Contains(out, "s0") {
		t.Errorf("csv content:\n%s", out)
	}
}

func TestTraceValidateCatchesOverlap(t *testing.T) {
	bad := Trace{
		{Op: 0, Resource: "T0", Start: 0, End: 10},
		{Op: 1, Resource: "T0", Start: 5, End: 15},
	}
	if err := bad.Validate(); err == nil {
		t.Error("overlap not caught")
	}
	neg := Trace{{Op: 0, Resource: "T0", Start: 10, End: 5}}
	if err := neg.Validate(); err == nil {
		t.Error("negative duration not caught")
	}
	negWait := Trace{{Op: 0, Resource: "T0", Start: 0, End: 5, Wait: -1}}
	if err := negWait.Validate(); err == nil {
		t.Error("negative wait not caught")
	}
}

func TestWaitMetricsPopulated(t *testing.T) {
	// Serialized gates in one trap force queuing: the second gate's wait
	// must be positive and appear in the Result.
	c := circuit.NewBuilder("wait", 4).CNOT(0, 1).CNOT(2, 3).MustCircuit()
	d, _ := device.NewLinear(1, 6)
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Run(p, d, models.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalWaitTime <= 0 || r.MaxWaitTime <= 0 {
		t.Errorf("wait metrics = %g/%g, want positive (serialized trap)", r.TotalWaitTime, r.MaxWaitTime)
	}
	// FM gate in a 4-ion chain is 100µs; the queued gate waits for it.
	if r.MaxWaitTime != 100 {
		t.Errorf("MaxWaitTime = %g, want 100", r.MaxWaitTime)
	}
}

func TestGanttRendering(t *testing.T) {
	c := pinned("gantt", 4).CNOT(1, 2).MustCircuit()
	d, _ := device.NewLinear(2, 4)
	p, err := compiler.Compile(c, d, compiler.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_, trace, err := RunTraced(p, d, models.Default())
	if err != nil {
		t.Fatal(err)
	}
	out := trace.Gantt(40)
	for _, want := range []string{"T0", "T1", "s0", "S", "M", "g", "timeline"} {
		if !strings.Contains(out, want) {
			t.Errorf("gantt missing %q:\n%s", want, out)
		}
	}
	if got := Trace(nil).Gantt(40); !strings.Contains(got, "empty") {
		t.Errorf("empty gantt = %q", got)
	}

	// On two modules the CNOT's ions start in different modules, so one
	// crosses the photonic link, whose row must show the link glyph.
	d, err = device.Parse("Mod2:L2", 4)
	if err != nil {
		t.Fatal(err)
	}
	c = pinned("gantt-link", 8).CNOT(0, 7).MustCircuit()
	if p, err = compiler.Compile(c, d, compiler.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, trace, err = RunTraced(p, d, models.Default()); err != nil {
		t.Fatal(err)
	}
	link := ""
	for _, e := range trace {
		if e.Kind == isa.OpLinkTransit {
			link = e.Resource
		}
	}
	if link == "" {
		t.Fatal("no link transit in the two-module trace")
	}
	out = trace.Gantt(40)
	if strings.Contains(out, "?") {
		t.Errorf("gantt shows an unknown op kind:\n%s", out)
	}
	_, row, _ := strings.Cut(out, fmt.Sprintf("\n%-4s |", link))
	if row, _, _ = strings.Cut(row, "\n"); !strings.Contains(row, "L") {
		t.Errorf("link row %s shows no link glyph:\n%s", link, out)
	}
}
