package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
)

// figRows appends long-format rows: figure,panel,series,capacity,value.
func figRows(rows [][]string, figure, panel, series string, caps []int, vals []float64) [][]string {
	for i, c := range caps {
		if i >= len(vals) || vals[i] != vals[i] {
			continue
		}
		rows = append(rows, []string{
			figure, panel, series, fmt.Sprint(c), fmt.Sprintf("%.6e", vals[i]),
		})
	}
	return rows
}

var figHeader = []string{"figure", "panel", "series", "capacity", "value"}

// WriteCSV emits every Figure 6 panel in long format.
func (f *Fig6) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, app := range PaperApps {
		rows = figRows(rows, "fig6", "a_time_s", app, f.Capacities, f.Time[app])
		rows = figRows(rows, "fig6", "cde_fidelity", app, f.Capacities, f.Fidelity[app])
		rows = figRows(rows, "fig6", "f_max_motional_quanta", app, f.Capacities, f.MaxMotional[app])
	}
	rows = figRows(rows, "fig6", "b_qft_split_s", "Computation", f.Capacities, f.QFTCompute)
	rows = figRows(rows, "fig6", "b_qft_split_s", "Communication", f.Capacities, f.QFTComm)
	rows = figRows(rows, "fig6", "g_supremacy_ms_error", "Motional", f.Capacities, f.SupremacyMotional)
	rows = figRows(rows, "fig6", "g_supremacy_ms_error", "Background", f.Capacities, f.SupremacyBackground)
	return writeCSV(w, figHeader, rows)
}

// WriteCSV emits every Figure 7 panel in long format; the series column
// carries "topology/app".
func (f *Fig7) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, topo := range f.Topologies {
		for _, app := range PaperApps {
			rows = figRows(rows, "fig7", "time_s", topo+"/"+app, f.Capacities, f.Time[topo][app])
			rows = figRows(rows, "fig7", "fidelity", topo+"/"+app, f.Capacities, f.Fidelity[topo][app])
		}
		rows = figRows(rows, "fig7", "g_sqrt_motional_quanta", topo, f.Capacities, f.SqrtMotional[topo])
	}
	return writeCSV(w, figHeader, rows)
}

// WriteCSV emits every Figure 8 panel in long format; the series column
// carries "app/combo".
func (f *Fig8) WriteCSV(w io.Writer) error {
	var rows [][]string
	for _, app := range PaperApps {
		for _, combo := range f.Combos {
			label := app + "/" + combo.Label()
			rows = figRows(rows, "fig8", "fidelity", label, f.Capacities, f.Fidelity[app][combo.Label()])
			rows = figRows(rows, "fig8", "time_s", label, f.Capacities, f.Time[app][combo.Label()])
		}
	}
	return writeCSV(w, figHeader, rows)
}

// writeCSV writes a header plus rows as CSV, after checking that every
// row is as wide as the header.
func writeCSV(w io.Writer, header []string, rows [][]string) error {
	for _, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("experiments: csv row has %d cells, header has %d", len(row), len(header))
		}
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	return cw.WriteAll(rows)
}
