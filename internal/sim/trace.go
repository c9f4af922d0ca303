package sim

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// TraceEntry records the execution interval of one op on its resource.
type TraceEntry struct {
	// Op is the op ID (index into the program).
	Op int
	// Kind is the op's primitive kind.
	Kind isa.OpKind
	// Resource names the exclusive resource held: "T3", "s5" or "J1".
	Resource string
	// Start and End are in µs.
	Start, End float64
	// Wait is the time the op spent ready but queued for its resource.
	Wait float64
}

// Trace is a complete execution timeline, ordered by start time.
type Trace []TraceEntry

// WriteCSV emits the trace as op,kind,resource,start_us,end_us,wait_us.
func (tr Trace) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "op,kind,resource,start_us,end_us,wait_us\n"); err != nil {
		return err
	}
	for _, e := range tr {
		_, err := fmt.Fprintf(w, "%d,%s,%s,%.3f,%.3f,%.3f\n",
			e.Op, e.Kind, e.Resource, e.Start, e.End, e.Wait)
		if err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the physical consistency of the timeline: no two ops
// overlap on one resource and every interval is well-formed. The
// simulator's correctness tests lean on this.
func (tr Trace) Validate() error {
	byResource := map[string][]TraceEntry{}
	for _, e := range tr {
		if e.End < e.Start {
			return fmt.Errorf("sim: op %d has negative duration", e.Op)
		}
		if e.Wait < 0 {
			return fmt.Errorf("sim: op %d has negative wait", e.Op)
		}
		byResource[e.Resource] = append(byResource[e.Resource], e)
	}
	for res, entries := range byResource {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Start < entries[j].Start })
		for i := 1; i < len(entries); i++ {
			prev, cur := entries[i-1], entries[i]
			if cur.Start < prev.End-1e-9 {
				return fmt.Errorf("sim: resource %s double-booked: op %d [%.3f,%.3f) overlaps op %d [%.3f,%.3f)",
					res, prev.Op, prev.Start, prev.End, cur.Op, cur.Start, cur.End)
			}
		}
	}
	return nil
}

// RunTraced simulates like Run and additionally returns the execution
// timeline with per-op queueing delays.
func RunTraced(p *isa.Program, d *device.Device, params models.Params) (*Result, Trace, error) {
	pr, err := Prepare(p, d)
	if err != nil {
		return nil, nil, err
	}
	e, err := pr.simulate(new(Scratch), params, true)
	if err != nil {
		return nil, nil, err
	}
	trace := make(Trace, 0, len(p.Ops))
	for i := range p.Ops {
		op := &p.Ops[i]
		trace = append(trace, TraceEntry{
			Op:       i,
			Kind:     op.Kind,
			Resource: e.resourceName(op),
			Start:    e.startTime[i],
			End:      e.endTime[i],
			Wait:     e.wait[i],
		})
	}
	sort.Slice(trace, func(i, j int) bool {
		if trace[i].Start != trace[j].Start {
			return trace[i].Start < trace[j].Start
		}
		return trace[i].Op < trace[j].Op
	})
	return e.result(), trace, nil
}

// resourceName renders the resource an op occupies.
func (e *engine) resourceName(op *isa.Op) string {
	switch op.Kind {
	case isa.OpMove, isa.OpLinkTransit:
		return fmt.Sprintf("s%d", op.Resource)
	case isa.OpJunctionCross:
		return fmt.Sprintf("J%d", op.Resource)
	default:
		return fmt.Sprintf("T%d", op.Resource)
	}
}
