package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/compiler"
	"repro/internal/device"
	"repro/internal/models"
)

// TestPreparedRunsMatchRun runs one prepared QFT program under every gate
// implementation, in two orders and then concurrently, and requires each
// result to encode exactly as Run's on the same inputs. A run with
// invalid params between the two orders fails with Run's error and leaves
// the Prepared as it was.
func TestPreparedRunsMatchRun(t *testing.T) {
	c, err := apps.ByName("QFT")
	if err != nil {
		t.Fatal(err)
	}
	d, err := device.Parse("G2x3", 18)
	if err != nil {
		t.Fatal(err)
	}
	gates := []models.GateImpl{models.AM1, models.AM2, models.PM, models.FM}
	orders := [][]models.GateImpl{gates, slices.Clone(gates)}
	slices.Reverse(orders[1])
	bad := models.Default()
	bad.OneQubitTime = 0
	for _, reorder := range []models.ReorderMethod{models.GS, models.IS} {
		t.Run(reorder.String(), func(t *testing.T) {
			opts := compiler.DefaultOptions()
			opts.Reorder = reorder
			prog, err := compiler.Compile(c, d, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := map[models.GateImpl][]byte{}
			for _, g := range gates {
				params := models.Default()
				params.Gate = g
				r, err := Run(prog, d, params)
				if err != nil {
					t.Fatal(err)
				}
				if want[g], err = json.Marshal(r); err != nil {
					t.Fatal(err)
				}
			}
			_, wantErr := Run(prog, d, bad)
			if wantErr == nil {
				t.Fatal("Run accepts params with a zero one-qubit time")
			}

			pr, err := Prepare(prog, d)
			if err != nil {
				t.Fatal(err)
			}
			// check runs pr under gate g; it may run on any goroutine.
			check := func(label string, g models.GateImpl) {
				params := models.Default()
				params.Gate = g
				r, err := pr.Run(params)
				if err != nil {
					t.Errorf("%s, %s: %v", label, g, err)
					return
				}
				got, err := json.Marshal(r)
				if err != nil {
					t.Errorf("%s, %s: %v", label, g, err)
					return
				}
				if !bytes.Equal(got, want[g]) {
					t.Errorf("%s, %s: prepared run differs from Run:\n%s\n%s", label, g, got, want[g])
				}
			}
			for k, order := range orders {
				for _, g := range order {
					check(fmt.Sprintf("order %d", k), g)
				}
				if k == 0 {
					if _, err := pr.Run(bad); err == nil || err.Error() != wantErr.Error() {
						t.Errorf("prepared run with bad params: error %v, want %v", err, wantErr)
					}
				}
			}
			var wg sync.WaitGroup
			for _, g := range gates {
				wg.Add(1)
				go func(g models.GateImpl) {
					defer wg.Done()
					check("concurrent", g)
				}(g)
			}
			wg.Wait()
		})
	}
}
