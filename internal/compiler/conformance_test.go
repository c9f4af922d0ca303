package compiler

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/circuit"
	"repro/internal/device"
	"repro/internal/models"
)

// conformanceCapacities is the paper's Figure 6/8 trap-capacity sweep.
var conformanceCapacities = []int{14, 18, 22, 26, 30, 34}

// buildDevice constructs one of the paper's evaluation topologies at the
// given capacity.
func buildDevice(t *testing.T, topo string, capacity int) *device.Device {
	t.Helper()
	var d *device.Device
	var err error
	switch topo {
	case "L6":
		d, err = device.NewLinear(6, capacity)
	case "G2x3":
		d, err = device.NewGrid(2, 3, capacity)
	default:
		t.Fatalf("unknown topology %q", topo)
	}
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestPolicyConformance is the contract every policy of the table in
// internal/models must satisfy: it compiles the paper's full evaluation
// grid (six apps × two topologies × six capacities × both reordering
// methods) without error, the resulting programs pass the ISA validator,
// and compilation is deterministic — two independent compilations of the
// same point produce identical programs. Policies run as parallel
// subtests so the suite also exercises per-compilation state under -race.
func TestPolicyConformance(t *testing.T) {
	suite := apps.Suite()
	circs := make(map[string]*circuit.Circuit, len(suite))
	for _, spec := range suite {
		c, err := spec.Build()
		if err != nil {
			t.Fatalf("build %s: %v", spec.Name, err)
		}
		circs[spec.Name] = c
	}
	infos := models.Policies()
	if len(infos) < 3 {
		t.Fatalf("policies = %d, want at least baseline+lookahead+congestion", len(infos))
	}

	capacities := conformanceCapacities
	if testing.Short() {
		capacities = []int{14, 34}
	}
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			pol, err := models.ParsePolicy(info.Name)
			if err != nil {
				t.Fatal(err)
			}
			for name, circ := range circs {
				for _, topo := range []string{"L6", "G2x3"} {
					for _, capacity := range capacities {
						for _, reorder := range []models.ReorderMethod{models.GS, models.IS} {
							label := fmt.Sprintf("%s/%s/cap%d/%s", name, topo, capacity, reorder)
							opts := DefaultOptions()
							opts.Reorder = reorder
							opts.Policy = pol
							prog, err := Compile(circ, buildDevice(t, topo, capacity), opts)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							if err := prog.Validate(); err != nil {
								t.Fatalf("%s: invalid program: %v", label, err)
							}
							again, err := Compile(circ, buildDevice(t, topo, capacity), opts)
							if err != nil {
								t.Fatalf("%s: recompile: %v", label, err)
							}
							if !reflect.DeepEqual(prog, again) {
								t.Fatalf("%s: nondeterministic compilation", label)
							}
						}
					}
				}
			}
		})
	}
}
