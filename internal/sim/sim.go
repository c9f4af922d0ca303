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
// A simulation has two halves. Prepare does the work that depends on the
// program and device alone: it checks both, and each op's resource
// against the device, and flattens the dependency graph into a counted
// adjacency list. Prepared.Run does the rest under one set of physical
// parameters. Run and RunTraced are Prepare followed by one run; a caller
// that simulates one program under several parameter sets — a compile
// group's gate siblings — prepares it once. A Scratch keeps a run's
// per-op arrays for the next: Prepared.Run is Scratch.Run on a fresh
// one, so a caller that runs many programs in turn, as a sweep worker
// does, allocates those arrays once, at its largest program's size.
//
// The engine is built for sweep scale: chain state is an isa.Chains, the
// ring-buffer model the compiler emits against, so membership checks,
// gate distances and end insertions/removals are O(1); the event queue
// and per-resource wait queues are typed binary heaps, the event queue
// preallocated to the resource count, since each running op holds one
// resource; and the event loop allocates nothing in steady state. A run
// keeps 12 bytes per op: a dependency counter and one wait slot, which
// holds the op's ready time until it starts and its queueing delay after.
// An event carries its op's start time, so only a traced run keeps
// per-op start and end times.
//
// Accounting is online: counts, fidelity terms and the compute/comm/idle
// attribution of the makespan are all updated as ops start and complete,
// so assembling the Result walks no op list. The only post-run pass sums
// the per-op queueing delays, in op-ID order. Each trap remembers the
// last one-qubit and MS-gate error it evaluated and their logs: the error
// models are pure, so a gate whose inputs match the last ones on its trap
// adds the same log without taking it again.
package sim

import (
	"fmt"
	"math"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/models"
)

// Run simulates program p on device d under physical parameters params.
func Run(p *isa.Program, d *device.Device, params models.Params) (*Result, error) {
	pr, err := Prepare(p, d)
	if err != nil {
		return nil, err
	}
	return pr.Run(params)
}

// Scratch holds the per-op arrays of a run for reuse by the next. The
// zero Scratch is ready to use; its arrays grow to the largest program it
// has run and never shrink. Each run overwrites them, and no Result holds
// any of them. A Scratch serves one goroutine at a time.
type Scratch struct {
	depsLeft []int32
	wait     []float64
}

// Prepared is a program checked against its device, with the dependency
// adjacency the engine wakes ops through. Nothing in it depends on the
// physical parameters, and Run never writes it, so one Prepared serves
// any number of runs, concurrent ones included. It holds the program and
// device it was prepared from, not copies: neither may change after
// Prepare, since Run relies on Prepare's checks and adjacency and checks
// neither again. So a caller that reuses the program's op list for the
// next program, as a sweep worker does, must not use the Prepared after
// that. The Prepared owns its adjacency; a run's per-op arrays live in a
// Scratch, never in the Prepared.
type Prepared struct {
	prog *isa.Program
	dev  *device.Device
	// childOff and childList are the counted adjacency list: the ops that
	// depend on op i are childList[childOff[i]:childOff[i+1]].
	childOff  []int32
	childList []int32
}

// Prepare checks program p against device d and builds its dependency
// adjacency. It runs every check of the program and device that Run
// does; it rejects an op that names a trap, segment or junction the
// device lacks, since Validate bounds resource indices below only.
func Prepare(p *isa.Program, d *device.Device) (*Prepared, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if err := d.Validate(); err != nil {
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
	nOps := len(p.Ops)
	pr := &Prepared{prog: p, dev: d, childOff: make([]int32, nOps+1)}
	// One pass checks each op's resource against the device and counts
	// its dependents; the graph is then flattened into a counted
	// adjacency list so waking dependents allocates nothing.
	for i := range p.Ops {
		op := &p.Ops[i]
		what, n := "trap", d.NumTraps()
		switch op.Kind {
		case isa.OpMove, isa.OpLinkTransit:
			what, n = "segment", len(d.Segments)
		case isa.OpJunctionCross:
			what, n = "junction", len(d.Junctions)
		}
		if int(op.Resource) >= n {
			return nil, fmt.Errorf("sim: op %d (%s) names %s %d, device %s has %d",
				i, op.Kind, what, op.Resource, d.Name, n)
		}
		for _, dep := range op.Deps() {
			pr.childOff[dep+1]++
		}
	}
	for i := 0; i < nOps; i++ {
		pr.childOff[i+1] += pr.childOff[i]
	}
	pr.childList = make([]int32, pr.childOff[nOps])
	for i := range p.Ops {
		for _, dep := range p.Ops[i].Deps() {
			pr.childList[pr.childOff[dep]] = int32(i)
			pr.childOff[dep]++
		}
	}
	// Filling advanced each op's offset to the next op's; shift them back.
	copy(pr.childOff[1:], pr.childOff[:nOps])
	pr.childOff[0] = 0
	return pr, nil
}

// Run simulates the prepared program under physical parameters params.
func (pr *Prepared) Run(params models.Params) (*Result, error) {
	return new(Scratch).Run(pr, params)
}

// Run is pr.Run keeping the run's per-op arrays in s.
func (s *Scratch) Run(pr *Prepared, params models.Params) (*Result, error) {
	e, err := pr.simulate(s, params, false)
	if err != nil {
		return nil, err
	}
	return e.result(), nil
}

// simulate checks params and runs the engine to completion on s's per-op
// arrays; traced keeps each op's start and end time. It is the one path
// into the engine for Run and RunTraced, so a check added here guards
// both.
func (pr *Prepared) simulate(s *Scratch, params models.Params, traced bool) (*engine, error) {
	if err := params.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	e := pr.newEngine(s, params, traced)
	if err := e.run(); err != nil {
		return nil, err
	}
	return e, nil
}

// engine holds all simulation state for one run of a Prepared program.
type engine struct {
	*Prepared
	params models.Params

	chains isa.Chains
	// energy is each trap's chain motional energy in quanta, the n̄ of the
	// Eq. 1 fidelity model (§VII.C: "the motional mode of the chain
	// (vibrational energy), in units of motional quanta"). transitE is
	// each ion's energy while in transit (valid only then).
	energy   []float64
	transitE []float64
	// memo is each trap's last evaluated gate errors (see fidelityMemo).
	memo []fidelityMemo

	resources []resource // traps, then segments, then junctions

	// depsLeft counts each op's unfinished dependencies. wait holds an
	// op's ready time (its resource-queue entry) until it starts, then
	// its queueing delay.
	depsLeft []int32
	wait     []float64

	now    float64
	events eventQueue
	done   int
	// startTime and endTime are kept for a traced run only.
	startTime, endTime []float64

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

// newEngine sizes one run's state, taking the per-op arrays from s;
// traced keeps per-op start and end times for the trace. A run seeds
// every dependency counter and writes each op's wait slot before reading
// it, so reused arrays need no clearing.
func (pr *Prepared) newEngine(s *Scratch, params models.Params, traced bool) *engine {
	p, d := pr.prog, pr.dev
	nOps := len(p.Ops)
	nRes := d.NumTraps() + len(d.Segments) + len(d.Junctions)
	if cap(s.wait) < nOps {
		s.depsLeft, s.wait = make([]int32, nOps), make([]float64, nOps)
	}
	e := &engine{
		Prepared:   pr,
		params:     params,
		chains:     isa.NewChains(p.InitialLayout, p.NumQubits, d.Capacity),
		energy:     make([]float64, d.NumTraps()),
		transitE:   make([]float64, p.NumQubits),
		memo:       make([]fidelityMemo, d.NumTraps()),
		maxPerTrap: make([]float64, d.NumTraps()),
		resources:  make([]resource, nRes),
		depsLeft:   s.depsLeft[:nOps],
		wait:       s.wait[:nOps],
		events:     make(eventQueue, 0, nRes),
	}
	if traced {
		e.startTime = make([]float64, nOps)
		e.endTime = make([]float64, nOps)
	}
	return e
}

// resourceIndex maps an op to its single required resource.
func (e *engine) resourceIndex(op *isa.Op) int {
	switch op.Kind {
	case isa.OpMove, isa.OpLinkTransit:
		return e.dev.NumTraps() + int(op.Resource)
	case isa.OpJunctionCross:
		return e.dev.NumTraps() + len(e.dev.Segments) + int(op.Resource)
	default:
		return int(op.Resource)
	}
}

// run drives the event loop to completion.
func (e *engine) run() error {
	// Seeding starts ops but completes none, so one pass can count each
	// op's dependencies and queue the ops that have none.
	for i := range e.prog.Ops {
		n := int32(len(e.prog.Ops[i].Deps()))
		e.depsLeft[i] = n
		if n == 0 {
			e.requestResource(int32(i))
		}
	}
	for len(e.events) > 0 {
		ev := e.events.pop()
		e.now = ev.time
		if err := e.complete(ev); err != nil {
			return err
		}
	}
	if e.done != len(e.prog.Ops) {
		return fmt.Errorf("sim: deadlock after %d/%d ops at t=%.1fµs (first blocked op: %s)",
			e.done, len(e.prog.Ops), e.now, e.firstBlocked())
	}
	return nil
}

// firstBlocked names the first unfinished op of a drained event loop. With
// no event pending no resource is held, so every op whose dependencies
// finished has run: the unfinished ops are those still counting some.
func (e *engine) firstBlocked() string {
	for i, n := range e.depsLeft {
		if n > 0 {
			return fmt.Sprintf("%d: %s", i, &e.prog.Ops[i])
		}
	}
	return "<none>"
}

// requestResource queues op i on its resource, starting it if free.
func (e *engine) requestResource(i int32) {
	e.wait[i] = e.now
	res := &e.resources[e.resourceIndex(&e.prog.Ops[i])]
	if res.busy {
		res.push(i)
		return
	}
	e.start(i)
}

// start computes the op duration from live state and schedules completion.
func (e *engine) start(i int32) {
	op := &e.prog.Ops[i]
	e.resources[e.resourceIndex(op)].busy = true
	e.wait[i] = e.now - e.wait[i]
	if e.startTime != nil {
		e.startTime[i] = e.now
	}
	end := e.now + e.duration(op)
	// Only ops that end after they start carry attributable time; the
	// completion handler applies the same test to the same two clocks.
	if end > e.now {
		e.account(op.Kind.Category(), +1)
	}
	e.events.push(event{time: end, start: e.now, op: i})
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
		return p.TwoQubitTime(e.gateDistance(op), e.chains.Len(int(op.Resource)))
	case isa.OpSwapGS:
		tau := p.TwoQubitTime(e.gateDistance(op), e.chains.Len(int(op.Resource)))
		return float64(p.SwapMSGates)*tau + float64(p.SwapOneQGates)*p.OneQubitTime
	case isa.OpIonSwap:
		return p.IonSwapTime()
	case isa.OpSplit:
		return p.SplitTime
	case isa.OpMerge:
		return p.MergeTime
	case isa.OpMove:
		return p.MoveTime
	case isa.OpLinkTransit:
		// Flat: remote entanglement + teleportation is one heralded round,
		// however long the optical fiber.
		return p.PhotonicLinkLatency
	case isa.OpJunctionCross:
		return p.JunctionTime(e.dev.Junctions[op.Resource].Kind())
	}
	return p.OneQubitTime
}

// gateDistance returns the in-chain position separation of a 2-qubit op.
func (e *engine) gateDistance(op *isa.Op) int {
	qs := op.Qubits()
	a, b, t := int(qs[0]), int(qs[1]), int(op.Resource)
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
func (e *engine) complete(ev event) error {
	i := ev.op
	op := &e.prog.Ops[i]
	if e.endTime != nil {
		e.endTime[i] = e.now
	}
	if err := e.apply(op); err != nil {
		return fmt.Errorf("sim: op %d: %s at t=%.1fµs: %w", i, op, e.now, err)
	}
	e.done++
	cat := op.Kind.Category()
	e.categoryBusy[cat] += e.now - ev.start
	if e.now > ev.start {
		e.account(cat, -1)
	}

	res := &e.resources[e.resourceIndex(op)]
	res.busy = false
	if next, ok := res.pop(); ok {
		e.start(next)
	}
	for _, child := range e.childList[e.childOff[i]:e.childOff[i+1]] {
		e.depsLeft[child]--
		if e.depsLeft[child] == 0 {
			e.requestResource(child)
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
	t := int(op.Resource) // the trap, for the kinds that act in one
	q := op.Qubits()[0]
	switch op.Kind {
	case isa.OpGate1:
		one := e.oneQError(t)
		e.oneQGates++
		e.sumOneQError += one.err
		e.logFidelity += one.log

	case isa.OpMeasure:
		e.logFidelity += math.Log(p.MeasureFidelity)

	case isa.OpGate2:
		e.recordMS(op, t, 1)

	case isa.OpSwapGS:
		// The swap exchanged the operands, which leaves their distance
		// as it was.
		e.recordMS(op, t, p.SwapMSGates)
		one := e.oneQError(t)
		for k := 0; k < p.SwapOneQGates; k++ {
			e.oneQGates++
			e.sumOneQError += one.err
			e.logFidelity += one.log
		}

	case isa.OpIonSwap:
		e.energy[t] = ionSwapEnergy(e.energy[t], p.K1)
		e.observe(t)

	case isa.OpSplit:
		if rest := e.chains.Len(t); rest == 0 {
			// Departing ion empties the trap; it carries the chain energy
			// plus the split jolt.
			e.transitE[q] = e.energy[t] + p.K1
			e.energy[t] = 0
		} else {
			e.transitE[q], e.energy[t] = splitEnergy(e.energy[t], 1, rest, p.K1)
		}
		e.observe(t)
		e.observeTransit(q)

	case isa.OpMove:
		e.transitE[q] = moveEnergy(e.transitE[q], p.K2)
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
		e.energy[t] = mergeEnergy(e.energy[t], e.transitE[q], p.K1)
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

// recordMS accounts count MS-gate executions of op on trap t, all with
// the error terms of op's gate as the chain now stands. The log is taken
// once: adding one value count times gives the same bits as adding count
// equal logs.
func (e *engine) recordMS(op *isa.Op, t, count int) {
	ms := e.msError(op, t)
	for k := 0; k < count; k++ {
		e.msGates++
		e.sumMotional += ms.terms.Motional
		e.sumBackground += ms.terms.Background
		e.logFidelity += ms.log
	}
}

// fidelityMemo is one trap's last evaluated one-qubit and MS-gate errors,
// each with the log of its fidelity and keyed on the bits of the model's
// inputs. The models are pure functions of those inputs under one run's
// parameters, so a hit returns exactly what evaluating them again would.
// A trap's energy changes only when ions split, merge or swap, so runs of
// gates between those events share one log.
type fidelityMemo struct {
	oneQ     oneQTerms
	oneQNbar uint64
	ms       msTerms
	msTau    uint64
	msNbar   uint64
	msN      int
	hasOneQ  bool
	hasMS    bool
}

// oneQTerms is a one-qubit gate's error and the log of its fidelity.
type oneQTerms struct{ err, log float64 }

// msTerms is an MS gate's error terms and the log of its fidelity.
type msTerms struct {
	terms models.ErrorTerms
	log   float64
}

// oneQError evaluates the one-qubit error model at trap t's energy.
func (e *engine) oneQError(t int) oneQTerms {
	m := &e.memo[t]
	nbar := math.Float64bits(e.energy[t])
	if !m.hasOneQ || m.oneQNbar != nbar {
		terms := e.params.OneQubitError(e.energy[t])
		m.oneQ = oneQTerms{err: terms.Error(), log: math.Log(terms.Fidelity())}
		m.oneQNbar, m.hasOneQ = nbar, true
	}
	return m.oneQ
}

// msError evaluates Eq. 1 for two-qubit op on trap t: its duration from
// the operands' distance and the chain's length, and its error from both
// and the trap's energy.
func (e *engine) msError(op *isa.Op, t int) msTerms {
	n := e.chains.Len(t)
	tau := e.params.TwoQubitTime(e.gateDistance(op), n)
	m := &e.memo[t]
	tauBits, nbar := math.Float64bits(tau), math.Float64bits(e.energy[t])
	if !m.hasMS || m.msTau != tauBits || m.msN != n || m.msNbar != nbar {
		terms := e.params.TwoQubitError(tau, n, e.energy[t])
		m.ms = msTerms{terms: terms, log: math.Log(terms.Fidelity())}
		m.msTau, m.msN, m.msNbar, m.hasMS = tauBits, n, nbar, true
	}
	return m.ms
}

// event is a scheduled op completion; start is when the op started.
type event struct {
	time  float64
	start float64
	op    int32
}

// eventQueue is a binary min-heap of events ordered by (time, op ID). It
// holds one event per running op, and each running op holds one
// resource, so preallocated to the resource count it never reallocates.
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
	busy  bool
	queue []int32 // maintained as a min-heap over op ID
}

func (r *resource) push(i int32) {
	r.queue = append(r.queue, i)
	for c := len(r.queue) - 1; c > 0; {
		parent := (c - 1) / 2
		if r.queue[parent] <= r.queue[c] {
			break
		}
		r.queue[parent], r.queue[c] = r.queue[c], r.queue[parent]
		c = parent
	}
}

func (r *resource) pop() (int32, bool) {
	if len(r.queue) == 0 {
		return 0, false
	}
	top := r.queue[0]
	last := len(r.queue) - 1
	r.queue[0] = r.queue[last]
	r.queue = r.queue[:last]
	i := 0
	for {
		l, rr := 2*i+1, 2*i+2
		small := i
		if l < len(r.queue) && r.queue[l] < r.queue[small] {
			small = l
		}
		if rr < len(r.queue) && r.queue[rr] < r.queue[small] {
			small = rr
		}
		if small == i {
			break
		}
		r.queue[i], r.queue[small] = r.queue[small], r.queue[i]
		i = small
	}
	return top, true
}
