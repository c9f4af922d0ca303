package sweep

import (
	"testing"

	"repro/internal/core"
)

func shardGrid(t *testing.T) *Grid {
	t.Helper()
	g, err := Space{
		Apps:       []string{"BV", "QFT", "Adder"},
		Topologies: []string{"L6", "G2x3"},
		Capacities: []int{14, 18, 22},
		Gates:      []string{"FM", "PM"},
		Reorders:   []string{"GS", "IS"},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return g // 3*2*3*2*2 = 72 points
}

// TestShardPartitionIsExact is the sharding property test: for many
// shard counts — below, at, and above the grid size — the windows are
// disjoint, gap-free, and union to exactly the full expansion.
func TestShardPartitionIsExact(t *testing.T) {
	g := shardGrid(t)
	size := g.Size()
	for _, count := range []int{1, 2, 3, 5, 7, 8, 31, 71, 72, 73, 100, 1000} {
		covered := make([]int, size)
		prevEnd := int64(0)
		for i := 0; i < count; i++ {
			w, err := g.Shard(i, count)
			if err != nil {
				t.Fatalf("count %d shard %d: %v", count, i, err)
			}
			if w.Start != prevEnd {
				t.Fatalf("count %d shard %d: starts at %d, want %d (gap or overlap)", count, i, w.Start, prevEnd)
			}
			if w.Len() < 0 {
				t.Fatalf("count %d shard %d: negative window %+v", count, i, w)
			}
			// Balanced: no shard is more than one point bigger than another.
			if q := size / int64(count); w.Len() != q && w.Len() != q+1 {
				t.Fatalf("count %d shard %d: window %+v not balanced (q=%d)", count, i, w, q)
			}
			for j := w.Start; j < w.End; j++ {
				covered[j]++
			}
			prevEnd = w.End
		}
		if prevEnd != size {
			t.Fatalf("count %d: shards end at %d, want %d", count, prevEnd, size)
		}
		for j, n := range covered {
			if n != 1 {
				t.Fatalf("count %d: index %d covered %d times", count, j, n)
			}
		}
	}
}

// TestShardPointsMatchFullEnumeration pins that streaming every shard's
// window through PointAt reproduces the full expansion point-for-point,
// in order — the contract that lets n replicas' NDJSON outputs be
// concatenated into one grid.
func TestShardPointsMatchFullEnumeration(t *testing.T) {
	g := shardGrid(t)
	var full []core.Point
	for i := int64(0); i < g.Size(); i++ {
		full = append(full, g.PointAt(i))
	}
	for _, count := range []int{2, 5, 72} {
		var union []core.Point
		for i := 0; i < count; i++ {
			w, err := g.Shard(i, count)
			if err != nil {
				t.Fatal(err)
			}
			for j := w.Start; j < w.End; j++ {
				union = append(union, g.PointAt(j))
			}
		}
		if len(union) != len(full) {
			t.Fatalf("count %d: union has %d points, want %d", count, len(union), len(full))
		}
		for i := range full {
			if union[i] != full[i] {
				t.Fatalf("count %d: point %d = %v, want %v", count, i, union[i], full[i])
			}
		}
	}
}

func TestShardRejections(t *testing.T) {
	g := shardGrid(t)
	for _, tc := range []struct{ index, count int }{
		{0, 0}, {0, -1}, {-1, 2}, {2, 2}, {5, 3},
	} {
		if _, err := g.Shard(tc.index, tc.count); err == nil {
			t.Errorf("Shard(%d, %d) accepted", tc.index, tc.count)
		}
	}
}

func TestExplicitWindowValidation(t *testing.T) {
	g := shardGrid(t)
	size := g.Size()
	if w, err := g.Window(0, size); err != nil || w.Len() != size {
		t.Errorf("full window: %+v, %v", w, err)
	}
	if w, err := g.Window(10, 10); err != nil || w.Len() != 0 {
		t.Errorf("empty window: %+v, %v", w, err)
	}
	for _, tc := range []struct{ start, end int64 }{
		{-1, 5}, {5, 4}, {0, size + 1}, {size + 1, size + 2},
	} {
		if _, err := g.Window(tc.start, tc.end); err == nil {
			t.Errorf("Window(%d, %d) accepted", tc.start, tc.end)
		}
	}
}

func TestWindowClampComposesWithResume(t *testing.T) {
	g := shardGrid(t)
	w, err := g.Shard(1, 3) // [24, 48) of 72
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ cursor, want int64 }{
		{0, w.Start},               // cursor before the window: start at the window
		{w.Start, w.Start},         // at the boundary
		{w.Start + 5, w.Start + 5}, // inside: honored exactly
		{w.End, w.End},             // at the end: nothing left
		{g.Size(), w.End},          // past the window: clamps, never leaks rows
	}
	for _, tc := range cases {
		if got := w.Clamp(tc.cursor); got != tc.want {
			t.Errorf("clamp(%d) = %d, want %d", tc.cursor, got, tc.want)
		}
	}
}

// TestGroupIsGateSiblingsInWindow checks Grid.Group against its
// definition: the rows of the window whose points equal row i's in every
// field but the gate, in increasing order.
func TestGroupIsGateSiblingsInWindow(t *testing.T) {
	g, err := Space{
		Apps:       []string{"BV", "QFT"},
		Topologies: []string{"L6", "G2x3"},
		Capacities: []int{14, 18},
		Gates:      []string{"AM1", "AM2", "PM"},
		Reorders:   []string{"GS", "IS"},
		Policies:   []string{"baseline", "lookahead"},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	program := func(i int64) core.Point {
		pt := g.PointAt(i)
		pt.Gate = 0
		return pt
	}
	for _, w := range []Window{g.FullWindow(), {Start: 5, End: 20}, {Start: 13, End: 14}} {
		for i := w.Start; i < w.End; i++ {
			var want []int64
			for j := w.Start; j < w.End; j++ {
				if program(j) == program(i) {
					want = append(want, j)
				}
			}
			got := g.Group(i, w)
			if len(got) != len(want) {
				t.Fatalf("window %+v: Group(%d) = %v, want %v", w, i, got, want)
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("window %+v: Group(%d) = %v, want %v", w, i, got, want)
				}
			}
		}
	}
}
