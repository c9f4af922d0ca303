package core

import (
	"context"
	"sync"
	"time"
)

// Source is an index window of design points for Stream. The engine
// never materializes the window: it asks for a point only when a worker
// evaluates it.
type Source struct {
	// Start and End bound the half-open index window [Start, End).
	Start, End int64
	// Point returns the design point at index i.
	Point func(i int64) Point
	// Group returns i and the later indexes whose points share i's
	// compiled program, in increasing order; Stream drops those at or
	// past End. i is the first index of its group the engine asks for.
	Group func(i int64) []int64
	// Width is the largest group size; it sizes the emission buffer.
	Width int
}

// groupSpan bounds a list's compile groups: every member lies fewer than
// groupSpan indexes past its group's first, so the rows the engine holds
// pending stay O(workers × groupSpan) for any list. It is the widest
// gate-sibling span of any sweep grammar, (4-1) gates × 2 reorders × 3
// policies + 1, so a grammar's expansion passed as a list groups as the
// grammar does.
const groupSpan = 19

// List is a Source over a slice of points, indexed once: points equal
// except for Gate share a compile group, as a grammar's gate siblings do,
// while each lies within groupSpan indexes of the group's first; past
// that, the next such point starts a new group.
func List(points []Point) Source {
	type open struct{ first, last, size int }
	groups := make(map[Point]open)
	next := make([]int64, len(points)) // next member of i's group, 0 for none
	width := 1
	for i, pt := range points {
		pt.Gate = 0
		g, ok := groups[pt]
		if !ok || i-g.first >= groupSpan {
			groups[pt] = open{first: i, last: i, size: 1}
			continue
		}
		next[g.last] = int64(i)
		g.last, g.size = i, g.size+1
		groups[pt] = g
		width = max(width, g.size)
	}
	return Source{
		End:   int64(len(points)),
		Point: func(i int64) Point { return points[i] },
		Group: func(i int64) []int64 {
			members := []int64{i}
			for j := next[i]; j != 0; j = next[j] {
				members = append(members, j)
			}
			return members
		},
		Width: width,
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
// by compile group: a worker takes a whole group, compiles its program
// once and simulates each row from it (see Group), checking ctx between
// rows. Each worker keeps one scratch for its groups' op lists and
// per-op run arrays, and drops it when the stream ends. Once ctx is done
// or emit returns false, Stream feeds no further point and emits no
// further row; it returns after its goroutines have exited, each worker
// having finished at most the row it was evaluating. Stream reports
// whether it emitted every row of the window.
func (tf *Toolflow) Stream(ctx context.Context, src Source, workers int, emit func(Row) bool) bool {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers = int(max(1, min(int64(workers), src.End-src.Start)))

	// order is the emission sequence and the backpressure bound: the
	// feeder stalls once workers×Width slots are pending emission. A
	// group's later rows wait there for the rows between them, so that is
	// room for every worker to hold a group while the emitter waits on the
	// earliest one.
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
				for _, j := range src.Group(i) {
					if j >= src.End {
						break
					}
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
			buf := new(scratch)
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
