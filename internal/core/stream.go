package core

import (
	"context"
	"sync"
	"time"

	"repro/internal/models"
)

// Source is an index window of design points for Stream. The engine
// never materializes the window: it asks for a point only when it groups
// or evaluates it.
type Source struct {
	// Start and End bound the half-open index window [Start, End).
	Start, End int64
	// Point returns the design point at index i.
	Point func(i int64) Point
	// Width is the number of gate implementations the points use; it
	// sizes the emission buffer.
	Width int
}

// groupSpan bounds a compile group: members lie fewer than groupSpan
// indexes past its first. It is the gate-sibling span of a sweep grammar
// over every gate, reorder method and policy, so it holds the gate
// siblings of any grammar, streamed as one or as its expansion's list.
var groupSpan = int64((len(models.GateImpls())-1)*len(models.ReorderMethods())*len(models.Policies()) + 1)

// group returns the compile group Stream starts at an index i that no
// earlier group holds: i, then each later index of the window fewer than
// groupSpan past i whose point equals i's but for Gate, which enters only
// the simulator. None of these is in an earlier group, or i would be too.
func (s Source) group(i int64) []int64 {
	key := s.Point(i)
	key.Gate = 0
	members := []int64{i}
	for j := i + 1; j < min(i+groupSpan, s.End); j++ {
		pt := s.Point(j)
		pt.Gate = 0
		if pt == key {
			members = append(members, j)
		}
	}
	return members
}

// List is a Source over a slice of points, in order.
func List(points []Point) Source {
	gates := make(map[models.GateImpl]bool)
	for _, pt := range points {
		gates[pt.Gate] = true
	}
	return Source{
		End:   int64(len(points)),
		Point: func(i int64) Point { return points[i] },
		Width: len(gates),
	}
}

// Row is one evaluated point of a stream.
type Row struct {
	// Index is the point's index in its Source.
	Index   int64
	Outcome Outcome
	// Cached reports whether the outcome came from the cache, as for Do.
	Cached bool
	// Elapsed is the row's own service time, so a group's first computed
	// row carries the compile.
	Elapsed time.Duration
}

// slot carries one index through the engine. res is buffered so a worker
// can always deposit its row and move on, even after emission stopped. A
// worker closes res without a row when the stream ends before it
// evaluates the index.
type slot struct {
	idx int64
	res chan Row
}

// Stream evaluates src on up to workers goroutines and calls emit with
// each row in index order, on the calling goroutine. Rows are dispatched
// by compile group, the points that differ only in Gate within groupSpan
// indexes of the group's first (see group): a worker takes a whole group,
// compiles its program once and simulates each row from it, checking ctx
// between rows. Each worker takes one scratch from the toolflow's free
// list for its groups' op lists and per-op run arrays, and returns it
// when the stream ends. Once ctx is done or emit returns false, Stream
// feeds no further point and emits no further row; it returns after its
// goroutines have exited, each worker having finished at most the row it
// was evaluating. Stream reports whether it emitted every row of the
// window.
func (tf *Toolflow) Stream(ctx context.Context, src Source, workers int, emit func(Row) bool) bool {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers = int(max(1, min(int64(workers), src.End-src.Start)))

	// order is the emission sequence and the backpressure bound: the
	// feeder stalls once workers×Width slots are pending emission. A
	// group's later rows wait there for the rows between them, so that is
	// room for every worker to hold a group of gate siblings while the
	// emitter waits on the earliest one. A list that repeats a point can
	// make a larger group; its later rows wait for the feeder.
	order := make(chan *slot, workers*src.Width)
	work := make(chan []*slot)
	var wg sync.WaitGroup
	wg.Add(1 + workers)
	go func() {
		defer wg.Done()
		defer close(order)
		defer close(work)
		// pending holds the slots of dispatched groups' later rows until
		// the feeder reaches them.
		pending := make(map[int64]*slot)
		for i := src.Start; i < src.End; i++ {
			// Checked before the selects: a send can be ready at the same
			// time as ctx.Done, and select would pick arbitrarily — this
			// keeps a stopped stream from feeding any further points.
			if ctx.Err() != nil {
				return
			}
			sl, ok := pending[i]
			if ok {
				delete(pending, i)
			} else {
				// i is its group's first row in the window. Hand the group
				// to a worker before queueing any of its slots for emission:
				// every slot the emitter sees is then guaranteed to be filled
				// or closed, so it can never be stranded on an empty slot.
				var group []*slot
				for _, j := range src.group(i) {
					member := &slot{idx: j, res: make(chan Row, 1)}
					group = append(group, member)
					if j != i {
						pending[j] = member
					}
				}
				select {
				case work <- group:
				case <-ctx.Done():
					return
				}
				sl = group[0]
			}
			select {
			case order <- sl:
			case <-ctx.Done():
				return
			}
		}
	}()
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// The worker's groups share one scratch (see Group).
			buf := tf.shared.getScratch()
			defer tf.shared.putScratch(buf)
			for group := range work {
				g := &Group{tf: tf, buf: buf}
				for _, sl := range group {
					if ctx.Err() != nil {
						close(sl.res)
						continue
					}
					start := time.Now()
					o, cached := g.Do(src.Point(sl.idx))
					sl.res <- Row{Index: sl.idx, Outcome: o, Cached: cached, Elapsed: time.Since(start)}
				}
			}
		}()
	}

	var emitted int64
	for sl := range order {
		row, ok := <-sl.res
		// A row left unevaluated ends the stream, since any later row
		// would leave a gap.
		if !ok || !emit(row) {
			cancel()
			break
		}
		emitted++
	}
	wg.Wait()
	return emitted == src.End-src.Start
}
