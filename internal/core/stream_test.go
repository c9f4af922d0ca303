package core_test

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/models"
	"repro/internal/sweep"
)

// panicTier is an outcome cache whose computation panics for one key, as
// a compiler or simulator bug on one unusual design point would.
type panicTier struct {
	*cache.Cache[core.Outcome]
	key string
}

func (p panicTier) Do(key string, compute func() (core.Outcome, error)) (core.Outcome, error, bool) {
	return p.Cache.Do(key, func() (core.Outcome, error) {
		if key == p.key {
			panic("injected fault")
		}
		return compute()
	})
}

// TestStreamContainsPointPanic streams a grammar window whose compile
// groups hold two rows, with a panic injected on the first row of one
// group. The panic becomes that row's error, and every other row,
// including the rest of its group, still streams in order.
func TestStreamContainsPointPanic(t *testing.T) {
	grid, err := sweep.Space{
		Apps:       []string{"BV@4", "BV@6"},
		Topologies: []string{"L2", "L3"},
		Capacities: []int{14},
		Gates:      []string{"AM1", "FM"},
	}.Compile()
	if err != nil {
		t.Fatal(err)
	}
	const bad = 2
	params := models.Default()
	tier := panicTier{Cache: cache.New[core.Outcome](0), key: core.CacheKey(grid.PointAt(bad), params)}
	tf := core.NewWithCache(params, tier)

	var rows []core.Row
	complete := tf.Stream(context.Background(), grid.Source(grid.FullWindow()), 2, func(r core.Row) bool {
		rows = append(rows, r)
		return true
	})
	if !complete || int64(len(rows)) != grid.Size() {
		t.Fatalf("complete = %v with %d of %d rows", complete, len(rows), grid.Size())
	}
	for i, r := range rows {
		if r.Index != int64(i) {
			t.Errorf("row %d has index %d", i, r.Index)
		}
		if i == bad {
			want := grid.PointAt(bad).String() + ": panic: injected fault"
			if r.Outcome.Err == nil || r.Outcome.Err.Error() != want {
				t.Errorf("row %d error = %v, want %q", i, r.Outcome.Err, want)
			}
			continue
		}
		if r.Outcome.Err != nil || r.Outcome.Result == nil {
			t.Errorf("row %d = %+v", i, r.Outcome)
		}
	}
	if _, ok := tier.Get(tier.key); ok {
		t.Error("the panicking point's outcome was cached")
	}
	if st := tier.Stats(); st.Errors != 1 || st.Entries != int(grid.Size())-1 {
		t.Errorf("cache stats = %+v, want 1 error and %d entries", st, grid.Size()-1)
	}
}
