package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// judgement is the verdict on one workload × metric of two sets of runs.
type judgement struct {
	verdict        string
	parent, change summary
	wins, pairs    int
	// delta is the change of the median as a share of the parent's, with
	// improvements positive.
	delta float64
}

// judge compares run values pairwise by index, pair i having been run
// back to back (see pairRuns). A metric is worse when the change's median is worse than
// the parent's by more than bound. It is better when the change wins at
// least nine in ten of at least ten pairs and the medians differ by more
// than the parent's interquartile range. Otherwise it is unresolved when
// either side's spread is wider than bound, unless every change run beats
// every parent run, and unchanged when not.
func judge(parent, change []float64, higherBetter bool, bound float64) judgement {
	sign := -1.0
	if higherBetter {
		sign = 1
	}
	j := judgement{parent: summarize(parent), change: summarize(change), pairs: min(len(parent), len(change))}
	j.delta = sign * (j.change.Median - j.parent.Median) / math.Abs(j.parent.Median)
	for i := 0; i < j.pairs; i++ {
		if sign*(change[i]-parent[i]) > 0 {
			j.wins++
		}
	}
	worstChange, bestParent := math.Inf(1), math.Inf(-1)
	for _, v := range change {
		worstChange = math.Min(worstChange, sign*v)
	}
	for _, v := range parent {
		bestParent = math.Max(bestParent, sign*v)
	}
	switch {
	case j.delta < -bound:
		j.verdict = "worse"
	case j.pairs >= 10 && j.wins*10 >= 9*j.pairs && j.delta > 0 &&
		math.Abs(j.change.Median-j.parent.Median) > j.parent.Q3-j.parent.Q1:
		j.verdict = "better"
	case (j.parent.spread() > bound || j.change.spread() > bound) && worstChange <= bestParent:
		j.verdict = "unresolved"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// runCompare prints one verdict row per workload × end-to-end metric of
// the spec. It returns exit code 1 when any metric is worse.
func runCompare(parentPath, changePath string, spec *benchSpec, w io.Writer) (int, error) {
	parent, err := loadRecords(parentPath)
	if err != nil {
		return 0, err
	}
	change, err := loadRecords(changePath)
	if err != nil {
		return 0, err
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-16s %-10s %12s %12s %9s %7s %9s %s\n",
		"workload", "metric", "unit", "parent", "change", "delta", "wins", "bound", "verdict")
	for _, sw := range spec.Workloads {
		ps, cs, err := pairRuns(parent, change, sw.Name)
		if err != nil {
			return 0, err
		}
		if len(ps) == 0 {
			continue
		}
		for _, m := range spec.EndToEnd {
			p, c := valuesOf(ps, sw.Name, m.Name), valuesOf(cs, sw.Name, m.Name)
			if len(p) != len(ps) || len(c) != len(cs) {
				return 0, fmt.Errorf("%s: not every run reports %s", sw.Name, m.Name)
			}
			j := judge(p, c, m.Better == "higher", m.Bound)
			fmt.Fprintf(w, "%-16s %-16s %-10s %12.6g %12.6g %+8.2f%% %3d/%-3d %8.0f%% %s\n",
				sw.Name, m.Name, m.Unit, j.parent.Median, j.change.Median, 100*j.delta,
				j.wins, j.pairs, 100*m.Bound, j.verdict)
			if j.verdict == "worse" {
				code = 1
			}
		}
	}
	return code, nil
}

// pairRuns returns the parent and change runs of one workload as pairs,
// pair i being parent[i] and change[i]. Pairs must have run back to back:
// taken in order of start time, the runs fall into consecutive twos of one
// parent and one change run each, in either order. A workload neither side
// ran yields no pairs.
func pairRuns(parent, change []runRecord, workload string) (ps, cs []runRecord, err error) {
	type run struct {
		rec    runRecord
		parent bool
	}
	var runs []run
	for _, side := range []struct {
		recs   []runRecord
		parent bool
	}{{parent, true}, {change, false}} {
		for _, r := range side.recs {
			if _, ok := r.Workloads[workload]; !ok {
				continue
			}
			if r.Started.IsZero() {
				return nil, nil, fmt.Errorf("%s: a run record has no start time", workload)
			}
			runs = append(runs, run{r, side.parent})
		}
	}
	sort.SliceStable(runs, func(i, j int) bool { return runs[i].rec.Started.Before(runs[j].rec.Started) })
	for i := 0; i < len(runs); i += 2 {
		if i+1 == len(runs) || runs[i].parent == runs[i+1].parent {
			return nil, nil, fmt.Errorf("%s: runs are not in back-to-back parent and change pairs (run %d of %d by start time)", workload, i+1, len(runs))
		}
		p, c := runs[i], runs[i+1]
		if !p.parent {
			p, c = c, p
		}
		ps, cs = append(ps, p.rec), append(cs, c.rec)
	}
	return ps, cs, nil
}

// valuesOf lists a metric's value in every run that measured it.
func valuesOf(recs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if wr, ok := r.Workloads[workload]; ok {
			if m, ok := wr.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// loadRecords reads the untraced run records of path: one record, a JSON
// array of records, or a directory of such files.
func loadRecords(path string) ([]runRecord, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var out []runRecord
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var recs []runRecord
		if raw = bytes.TrimSpace(raw); len(raw) > 0 && raw[0] == '[' {
			err = json.Unmarshal(raw, &recs)
		} else {
			recs = make([]runRecord, 1)
			err = json.Unmarshal(raw, &recs[0])
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		for _, r := range recs {
			if !r.Trace && len(r.Workloads) > 0 {
				out = append(out, r)
			}
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced run records", path)
	}
	return out, nil
}
