// Package sim executes compiled QCCD programs on a device model using the
// performance, heating and fidelity models of §VII. It is a discrete-event
// simulator: every op waits for its dependencies, then for its single
// device resource (its trap, segment, or junction), runs for a duration
// computed from the live machine state, and on completion updates chain
// membership, chain order, motional energies and the running fidelity
// product. Gates within one trap serialize on the trap resource while
// independent shuttles proceed in parallel, matching the parallelism
// constraints described in §V.B. Contended resources are granted to the
// lowest op ID first — the compiler's issue order — which realizes the
// paper's "prioritize earlier gates" congestion policy.
//
// The engine is built for sweep scale: chain state is an isa.Chains, the
// ring-buffer model the compiler emits against, so membership checks,
// gate distances and end insertions/removals are O(1); the event queue
// and per-resource wait queues are typed binary heaps over preallocated
// storage; and all per-run state is sized off the program up front, so
// the event loop allocates nothing in steady state.
//
// Accounting is online: counts, fidelity terms and the compute/comm/idle
// attribution of the makespan are all updated as ops start and complete,
// so assembling the Result walks no op list. The only post-run pass sums
// the per-op queueing delays, in op-ID order, over two float arrays.
package sim

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/heating"
	"repro/internal/isa"
	"repro/internal/models"
)

// Run simulates program p on device d under physical parameters params.
func Run(p *isa.Program, d *device.Device, params models.Params) (*Result, error) {
	e, err := simulate(p, d, params)
	if err != nil {
		return nil, err
	}
	return e.result(), nil
}

// simulate checks the inputs and runs the engine to completion. It is the
// one path into the engine for Run and RunTraced, so a check added here
// guards both.
func simulate(p *isa.Program, d *device.Device, params models.Params) (*engine, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if len(p.InitialLayout) != d.NumTraps() {
		return nil, fmt.Errorf("sim: program laid out for %d traps, device %s has %d",
			len(p.InitialLayout), d.Name, d.NumTraps())
	}
	for t, chain := range p.InitialLayout {
		if len(chain) > d.Capacity {
			return nil, fmt.Errorf("sim: initial layout overfills trap %d: %d ions, capacity %d",
				t, len(chain), d.Capacity)
		}
	}
	e, err := newEngine(p, d, params)
	if err != nil {
		return nil, err
	}
	if err := e.run(); err != nil {
		return nil, err
	}
	return e, nil
}

// engine holds all simulation state for one Run call.
type engine struct {
	prog   *isa.Program
	dev    *device.Device
	params models.Params

	chains isa.Chains
	// energy is each trap's chain motional energy in quanta, the n̄ of the
	// Eq. 1 fidelity model (§VII.C: "the motional mode of the chain
	// (vibrational energy), in units of motional quanta"). transitE is
	// each ion's energy while in transit (valid only then).
	energy   []float64
	transitE []float64

	resources []resource // traps, then segments, then junctions

	depsLeft  []int32
	childOff  []int32 // op -> [childOff[i], childOff[i+1]) into childList
	childList []int32

	now       float64
	events    eventQueue
	done      int
	startTime []float64
	endTime   []float64
	readyTime []float64 // when deps completed (resource-queue entry time)

	// live counts the running ops of positive length per category, and
	// attributed is the clock up to which the makespan has been split
	// into compute, comm and idle time (see account).
	live                   [2]int
	attributed             float64
	computeT, commT, idleT float64

	// completed counts finished ops per kind (OpLinkTransit is the last);
	// the Result's op counters read it.
	completed [isa.OpLinkTransit + 1]int
	// maxPerTrap is the largest chain energy seen per trap and maxTransit
	// the largest energy of an ion in transit (a one-ion chain): the data
	// behind Figures 6f and 7g.
	maxPerTrap    []float64
	maxTransit    float64
	logFidelity   float64
	msGates       int
	sumMotional   float64
	sumBackground float64
	oneQGates     int
	sumOneQError  float64
	categoryBusy  [2]float64
}

// newEngine sizes the engine for program p on device d. It rejects an op
// that names a trap, segment or junction the device lacks: Validate
// bounds resource indices below only.
func newEngine(p *isa.Program, d *device.Device, params models.Params) (*engine, error) {
	nOps := len(p.Ops)
	e := &engine{
		prog:       p,
		dev:        d,
		params:     params,
		chains:     isa.NewChains(p.InitialLayout, p.NumQubits, d.Capacity),
		energy:     make([]float64, d.NumTraps()),
		transitE:   make([]float64, p.NumQubits),
		maxPerTrap: make([]float64, d.NumTraps()),
		depsLeft:   make([]int32, nOps),
		childOff:   make([]int32, nOps+1),
		startTime:  make([]float64, nOps),
		endTime:    make([]float64, nOps),
		readyTime:  make([]float64, nOps),
		events:     make(eventQueue, 0, nOps),
	}
	e.resources = make([]resource, d.NumTraps()+len(d.Segments)+len(d.Junctions))
	// One pass checks each op's resource against the device and counts
	// its dependencies; the graph is then flattened into a counted
	// adjacency list so waking dependents allocates nothing.
	for i := range p.Ops {
		op := &p.Ops[i]
		what, idx, n := "trap", int(op.Trap), d.NumTraps()
		switch op.Kind {
		case isa.OpMove, isa.OpLinkTransit:
			what, idx, n = "segment", int(op.Segment), len(d.Segments)
		case isa.OpJunctionCross:
			what, idx, n = "junction", int(op.Junction), len(d.Junctions)
		}
		if idx >= n {
			return nil, fmt.Errorf("sim: op %d (%s) names %s %d, device %s has %d",
				i, op.Kind, what, idx, d.Name, n)
		}
		deps := op.Deps()
		e.depsLeft[i] = int32(len(deps))
		for _, dep := range deps {
			e.childOff[dep+1]++
		}
		e.startTime[i] = -1
		e.endTime[i] = -1
	}
	for i := 0; i < nOps; i++ {
		e.childOff[i+1] += e.childOff[i]
	}
	e.childList = make([]int32, e.childOff[nOps])
	fill := make([]int32, nOps)
	copy(fill, e.childOff[:nOps])
	for i := range p.Ops {
		for _, dep := range p.Ops[i].Deps() {
			e.childList[fill[dep]] = int32(i)
			fill[dep]++
		}
	}
	return e, nil
}

// resourceIndex maps an op to its single required resource.
func (e *engine) resourceIndex(op *isa.Op) int {
	switch op.Kind {
	case isa.OpMove, isa.OpLinkTransit:
		return e.dev.NumTraps() + int(op.Segment)
	case isa.OpJunctionCross:
		return e.dev.NumTraps() + len(e.dev.Segments) + int(op.Junction)
	default:
		return int(op.Trap)
	}
}

// run drives the event loop to completion.
func (e *engine) run() error {
	for i := range e.prog.Ops {
		if e.depsLeft[i] == 0 {
			e.requestResource(i)
		}
	}
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.time
		if err := e.complete(ev.op); err != nil {
			return err
		}
	}
	if e.done != len(e.prog.Ops) {
		return fmt.Errorf("sim: deadlock after %d/%d ops at t=%.1fµs (first blocked op: %s)",
			e.done, len(e.prog.Ops), e.now, e.firstBlocked())
	}
	return nil
}

func (e *engine) firstBlocked() string {
	for i := range e.prog.Ops {
		if e.endTime[i] < 0 {
			return e.prog.Ops[i].String()
		}
	}
	return "<none>"
}

// requestResource queues op i on its resource, starting it if free.
func (e *engine) requestResource(i int) {
	e.readyTime[i] = e.now
	res := &e.resources[e.resourceIndex(&e.prog.Ops[i])]
	if res.busy {
		res.push(i)
		return
	}
	e.start(i)
}

// start computes the op duration from live state and schedules completion.
func (e *engine) start(i int) {
	op := &e.prog.Ops[i]
	res := &e.resources[e.resourceIndex(op)]
	res.busy = true
	res.holder = i
	e.startTime[i] = e.now
	end := e.now + e.duration(op)
	// Only ops that end after they start carry attributable time; the
	// completion handler applies the same test to the same two clocks.
	if end > e.now {
		e.account(op.Kind.Category(), +1)
	}
	e.events.push(event{time: end, op: i})
}

// account attributes the time since the last attributed instant to
// compute when any compute op of positive length is running, else to
// communication when any comm op is, else to idle (Figure 6b), then adds
// delta to category cat's running count. The event loop's clock never
// runs backwards, so calling it at every start and completion of a
// positive-length op splits the makespan exactly as a sweep over the
// sorted op intervals would, adding the same intervals in the same order.
func (e *engine) account(cat isa.Category, delta int) {
	e.advance()
	e.live[cat] += delta
}

// advance attributes [attributed, now) by the running counts.
func (e *engine) advance() {
	if e.now <= e.attributed {
		return
	}
	dt := e.now - e.attributed
	switch {
	case e.live[isa.CatCompute] > 0:
		e.computeT += dt
	case e.live[isa.CatComm] > 0:
		e.commT += dt
	default:
		e.idleT += dt
	}
	e.attributed = e.now
}

// duration evaluates the §VII.A / Table I time models against live state.
func (e *engine) duration(op *isa.Op) float64 {
	p := &e.params
	switch op.Kind {
	case isa.OpGate1:
		return p.OneQubitTime
	case isa.OpMeasure:
		return p.MeasureTime
	case isa.OpGate2:
		return p.TwoQubitTime(e.gateDistance(op), e.chains.Len(int(op.Trap)))
	case isa.OpSwapGS:
		tau := p.TwoQubitTime(e.gateDistance(op), e.chains.Len(int(op.Trap)))
		return float64(p.SwapMSGates)*tau + float64(p.SwapOneQGates)*p.OneQubitTime
	case isa.OpIonSwap:
		return p.IonSwapTime()
	case isa.OpSplit:
		return p.SplitTime
	case isa.OpMerge:
		return p.MergeTime
	case isa.OpMove:
		return p.MoveTime * float64(e.dev.Segments[op.Segment].Length)
	case isa.OpLinkTransit:
		// Flat: remote entanglement + teleportation is one heralded round,
		// however long the optical fiber.
		return p.PhotonicLinkLatency
	case isa.OpJunctionCross:
		return p.JunctionTime(e.dev.Junctions[op.Junction].Kind())
	}
	return p.OneQubitTime
}

// gateDistance returns the in-chain position separation of a 2-qubit op.
func (e *engine) gateDistance(op *isa.Op) int {
	qs := op.Qubits()
	a, b, t := int(qs[0]), int(qs[1]), int(op.Trap)
	if e.chains.Trap(a) != t || e.chains.Trap(b) != t {
		// Recorded as an invariant violation by the completion handler.
		return 1
	}
	d := e.chains.Pos(a) - e.chains.Pos(b)
	if d < 0 {
		return -d
	}
	return d
}

// complete applies the op's effects, frees its resource and wakes
// dependents.
func (e *engine) complete(i int) error {
	op := &e.prog.Ops[i]
	e.endTime[i] = e.now
	if err := e.apply(op); err != nil {
		return fmt.Errorf("sim: op %s at t=%.1fµs: %w", op, e.now, err)
	}
	e.done++
	cat := op.Kind.Category()
	e.categoryBusy[cat] += e.endTime[i] - e.startTime[i]
	if e.endTime[i] > e.startTime[i] {
		e.account(cat, -1)
	}

	res := &e.resources[e.resourceIndex(op)]
	res.busy = false
	res.holder = -1
	if next, ok := res.pop(); ok {
		e.start(next)
	}
	for _, child := range e.childList[e.childOff[i]:e.childOff[i+1]] {
		e.depsLeft[child]--
		if e.depsLeft[child] == 0 {
			e.requestResource(int(child))
		}
	}
	return nil
}

// apply steps the chains through a finished op, then updates motional
// energies, event counts and the fidelity accounting. An op changes no
// chain's length except by a split or merge, so the gate and swap models
// read the chain as the op found it.
func (e *engine) apply(op *isa.Op) error {
	if err := e.chains.Apply(op); err != nil {
		return err
	}
	e.completed[op.Kind]++
	p := &e.params
	t := int(op.Trap)
	q := op.Qubits()[0]
	switch op.Kind {
	case isa.OpGate1:
		terms := p.OneQubitError(e.energy[t])
		e.oneQGates++
		e.sumOneQError += terms.Error()
		e.logFidelity += math.Log(terms.Fidelity())

	case isa.OpMeasure:
		e.logFidelity += math.Log(p.MeasureFidelity)

	case isa.OpGate2:
		n := e.chains.Len(t)
		tau := p.TwoQubitTime(e.gateDistance(op), n)
		e.recordMS(p.TwoQubitError(tau, n, e.energy[t]), 1)

	case isa.OpSwapGS:
		// The swap exchanged the operands, which leaves their distance
		// as it was.
		n := e.chains.Len(t)
		tau := p.TwoQubitTime(e.gateDistance(op), n)
		e.recordMS(p.TwoQubitError(tau, n, e.energy[t]), p.SwapMSGates)
		one := p.OneQubitError(e.energy[t])
		oneErr, oneLog := one.Error(), math.Log(one.Fidelity())
		for k := 0; k < p.SwapOneQGates; k++ {
			e.oneQGates++
			e.sumOneQError += oneErr
			e.logFidelity += oneLog
		}

	case isa.OpIonSwap:
		e.energy[t] = heating.IonSwapHop(e.energy[t], p.K1)
		e.observe(t)

	case isa.OpSplit:
		if rest := e.chains.Len(t); rest == 0 {
			// Departing ion empties the trap; it carries the chain energy
			// plus the split jolt.
			e.transitE[q] = e.energy[t] + p.K1
			e.energy[t] = 0
		} else {
			e.transitE[q], e.energy[t] = heating.Split(e.energy[t], 1, rest, p.K1)
		}
		e.observe(t)
		e.observeTransit(q)

	case isa.OpMove:
		e.transitE[q] = heating.Move(e.transitE[q], e.dev.Segments[op.Segment].Length, p.K2)
		e.observeTransit(q)

	case isa.OpLinkTransit:
		// The state is teleported onto a fresh cooled ion on the far
		// module, so accumulated motional energy does not cross the link —
		// but the teleportation itself costs fidelity.
		e.transitE[q] = 0
		e.logFidelity += math.Log(1 - p.PhotonicLinkInfidelity)
		e.observeTransit(q)

	case isa.OpJunctionCross:
		e.transitE[q] += p.JunctionHeating
		e.observeTransit(q)

	case isa.OpMerge:
		e.energy[t] = heating.Merge(e.energy[t], e.transitE[q], p.K1)
		e.observe(t)
	}
	return nil
}

// observe records trap t's chain energy toward its maximum.
func (e *engine) observe(t int) {
	if e.energy[t] > e.maxPerTrap[t] {
		e.maxPerTrap[t] = e.energy[t]
	}
}

// observeTransit records in-transit ion q's energy toward the transit
// maximum: the hottest object on the device can be a single shuttled ion
// mid-route, which no per-trap observation ever sees.
func (e *engine) observeTransit(q int32) {
	if e.transitE[q] > e.maxTransit {
		e.maxTransit = e.transitE[q]
	}
}

// recordMS accounts count MS-gate executions with identical error terms.
// The log is taken once: adding one value count times gives the same bits
// as adding count equal logs.
func (e *engine) recordMS(terms models.ErrorTerms, count int) {
	logF := math.Log(terms.Fidelity())
	for k := 0; k < count; k++ {
		e.msGates++
		e.sumMotional += terms.Motional
		e.sumBackground += terms.Background
		e.logFidelity += logF
	}
}

// event is a scheduled op completion.
type event struct {
	time float64
	op   int
}

// eventQueue is a binary min-heap of events ordered by (time, op ID). It
// is preallocated to the program's op count, so pushes never reallocate.
type eventQueue []event

func (h eventQueue) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].op < h[j].op
}

func (h *eventQueue) push(ev event) {
	*h = append(*h, ev)
	q := *h
	for c := len(q) - 1; c > 0; {
		parent := (c - 1) / 2
		if q.less(parent, c) {
			break
		}
		q[parent], q[c] = q[c], q[parent]
		c = parent
	}
}

func (h *eventQueue) pop() event {
	q := *h
	top := q[0]
	last := len(q) - 1
	q[0] = q[last]
	q = q[:last]
	*h = q
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(q) && q.less(l, small) {
			small = l
		}
		if r < len(q) && q.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		q[i], q[small] = q[small], q[i]
		i = small
	}
	return top
}

// resource is one exclusively-held device resource with a priority wait
// queue (lowest op ID first).
type resource struct {
	busy   bool
	holder int
	wait   []int // maintained as a min-heap over op ID
}

func (r *resource) push(i int) {
	r.wait = append(r.wait, i)
	for c := len(r.wait) - 1; c > 0; {
		parent := (c - 1) / 2
		if r.wait[parent] <= r.wait[c] {
			break
		}
		r.wait[parent], r.wait[c] = r.wait[c], r.wait[parent]
		c = parent
	}
}

func (r *resource) pop() (int, bool) {
	if len(r.wait) == 0 {
		return 0, false
	}
	top := r.wait[0]
	last := len(r.wait) - 1
	r.wait[0] = r.wait[last]
	r.wait = r.wait[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(r.wait) && r.wait[l] < r.wait[small] {
			small = l
		}
		if rr < len(r.wait) && r.wait[rr] < r.wait[small] {
			small = rr
		}
		if small == i {
			break
		}
		r.wait[i], r.wait[small] = r.wait[small], r.wait[i]
		i = small
	}
	return top, true
}
