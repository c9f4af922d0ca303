package sweep

import "fmt"

// Window is a half-open [Start, End) slice of a grid's expansion indexes.
// Because the expansion order is a stable mixed-radix total order (see
// PointAt), a window is a complete description of a unit of sweep work:
// n replicas behind a load balancer each take one window of an n-way
// Shard partition and together cover the grid exactly once.
type Window struct {
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

// Len returns the number of points in the window.
func (w Window) Len() int64 { return w.End - w.Start }

// Clamp limits an index to the window, so a resume cursor minted against
// the full expansion composes with a shard: resuming below the window
// starts at the window, resuming past it leaves nothing to stream — a
// cursor can neither leak rows from another replica's shard nor skip
// rows of its own.
func (w Window) Clamp(i int64) int64 {
	if i < w.Start {
		return w.Start
	}
	if i > w.End {
		return w.End
	}
	return i
}

// FullWindow returns the window covering the whole expansion.
func (g *Grid) FullWindow() Window { return Window{Start: 0, End: g.Size()} }

// Shard returns the index window of shard `index` out of `count`: the
// balanced contiguous partition of [0, Size()) in which every shard gets
// Size()/count points and the first Size()%count shards get one extra.
// For any count >= 1 the windows are disjoint, gap-free, and union to
// the full expansion — shards of a grid larger than count are never
// empty, and count may exceed Size() (trailing shards are then empty,
// which a replica streams as an immediate header+summary).
func (g *Grid) Shard(index, count int) (Window, error) {
	if count < 1 {
		return Window{}, fmt.Errorf("sweep: shard count must be >= 1, got %d", count)
	}
	if index < 0 || index >= count {
		return Window{}, fmt.Errorf("sweep: shard index %d out of range [0, %d)", index, count)
	}
	q, r := g.Size()/int64(count), g.Size()%int64(count)
	i := int64(index)
	start := i*q + min(i, r)
	end := start + q
	if i < r {
		end++
	}
	return Window{Start: start, End: end}, nil
}

// Window validates an explicit half-open [start, end) index window
// against the expansion bounds.
func (g *Grid) Window(start, end int64) (Window, error) {
	if start < 0 || end < start || end > g.Size() {
		return Window{}, fmt.Errorf("sweep: window [%d, %d) out of range [0, %d]", start, end, g.Size())
	}
	return Window{Start: start, End: end}, nil
}
