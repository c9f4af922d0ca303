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
func (g *Grid) FullWindow() Window { return Window{Start: 0, End: g.size} }

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
	q, r := g.size/int64(count), g.size%int64(count)
	i := int64(index)
	start := i*q + min64(i, r)
	end := start + q
	if i < r {
		end++
	}
	return Window{Start: start, End: end}, nil
}

// Window validates an explicit half-open [start, end) index window
// against the expansion bounds.
func (g *Grid) Window(start, end int64) (Window, error) {
	if start < 0 || end < start || end > g.size {
		return Window{}, fmt.Errorf("sweep: window [%d, %d) out of range [0, %d]", start, end, g.size)
	}
	return Window{Start: start, End: end}, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// Group returns the indexes inside window w of the rows that share row
// i's compiled program, in increasing order: i's gate siblings, which
// differ from it only in the gate axis. The gate implementation enters
// only the simulator, so one compiled program serves the whole group. In
// the expansion order gate siblings sit at stride |reorders|×|policies|
// inside their (app, topology, capacity) block. i must lie in w.
func (g *Grid) Group(i int64, w Window) []int64 {
	stride := int64(len(g.reorders) * len(g.policies))
	block := stride * int64(len(g.gates))
	first := i - i%block + i%stride
	members := make([]int64, 0, len(g.gates))
	for j := first; j < first+block; j += stride {
		if j >= w.Start && j < w.End {
			members = append(members, j)
		}
	}
	return members
}
