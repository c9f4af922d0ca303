// Command qccdbench is the end-to-end and per-layer benchmark of the qccdd
// sweep daemon. It builds ./cmd/qccdd into bench/out, starts it with two
// workers, drives it over HTTP from this one process (at most two client
// goroutines and two connections), checks every returned result, and
// prints each metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": 576, "failed": 0, "metrics": {...}}
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME|all] [-seed N] [-seconds S] [-trace 0|1]
//	bash bench/run.sh -compare PARENT CHANGE
//
// With -trace 1 the run replays the same inputs inside this process
// through the toolflow's layers and reports per-layer metrics instead of
// end-to-end ones. -compare reads two sets of run records (files, arrays
// of records, or directories of them) and judges every workload ×
// end-to-end metric against the bounds in BENCHMARK.json.
//
// BENCHMARK.json, read from the working directory, is the one list of the
// workloads and metrics, with their units, directions and bounds. This
// command keeps only how each workload runs and how each metric is
// computed, keyed by name.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	// daemonWorkers is qccdd -workers: one per core of the two-core
	// machine the benchmark is sized for.
	daemonWorkers = 2
	// defaultCacheEntries is qccdd's default -cache, which every workload's
	// daemon runs with.
	defaultCacheEntries = 4096
	// outDir holds the built daemon, run records, traces and temporary
	// cache directories.
	outDir = "bench/out"
	// specPath is the benchmark's definition.
	specPath = "BENCHMARK.json"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 25, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1: traced in-process replay reporting per-layer metrics")
		compare = flag.Bool("compare", false, "compare two sets of run records: -compare PARENT CHANGE")
	)
	flag.Parse()
	code, err := dispatch(flag.Args(), *compare, *name, *seed, *seconds, *trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qccdbench:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// dispatch reads the benchmark's definition and runs what the flags and
// the arguments left after them ask for. It returns the exit code.
func dispatch(args []string, compare bool, name string, seed int64, seconds, trace int) (int, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return 0, err
	}
	if compare {
		if len(args) != 2 {
			return 0, errors.New("-compare takes two arguments: PARENT CHANGE")
		}
		return runCompare(args[0], args[1], spec, os.Stdout)
	}
	if len(args) > 0 || seconds < 1 || (trace != 0 && trace != 1) {
		flag.Usage()
		return 2, nil
	}
	selected, err := spec.workloads()
	if err != nil {
		return 0, err
	}
	if name != "all" {
		w, ok := workloadByName(name)
		if !ok || !slices.Contains(selected, w) {
			return 0, fmt.Errorf("unknown workload %q", name)
		}
		selected = []*workload{w}
	}
	return runBench(spec, selected, name, seed, time.Duration(seconds)*time.Second, trace == 1)
}

// benchSpec is the part of BENCHMARK.json this command reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// metricSpec is one metric of BENCHMARK.json. Per-layer metrics have no
// bound.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read the benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workloads resolves the spec's workloads, in its order, to the code that
// runs them.
func (s *benchSpec) workloads() ([]*workload, error) {
	var out []*workload
	for _, sw := range s.Workloads {
		w, ok := workloadByName(sw.Name)
		if !ok {
			return nil, fmt.Errorf("%s names workload %q, which this command does not run", specPath, sw.Name)
		}
		out = append(out, w)
	}
	return out, nil
}

// named gives each metric of defs its value from computed and its unit
// from defs. A metric defs lists that was not computed is an error.
func named(computed map[string]metricRecord, defs []metricSpec) (map[string]metricRecord, error) {
	out := make(map[string]metricRecord, len(defs))
	for _, d := range defs {
		m, ok := computed[d.Name]
		if !ok {
			return nil, fmt.Errorf("%s lists metric %q, which this command does not compute", specPath, d.Name)
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	return out, nil
}

// runBench runs the selected workloads, prints their results and writes
// the run record. It returns the exit code: 0 when every check passed.
func runBench(spec *benchSpec, selected []*workload, name string, seed int64, seconds time.Duration, traced bool) (int, error) {
	if err := os.MkdirAll(filepath.Join(outDir, "tmp"), 0o755); err != nil {
		return 0, err
	}
	bin, err := filepath.Abs(filepath.Join(outDir, "qccdd"))
	if err != nil {
		return 0, err
	}
	build := exec.Command("go", "build", "-o", bin, "./cmd/qccdd")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return 0, fmt.Errorf("build qccdd: %w", err)
	}
	rec := &runRecord{
		Commit:     commitID(),
		Started:    time.Now(),
		Seed:       seed,
		Seconds:    seconds.Seconds(),
		Trace:      traced,
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Workloads:  make(map[string]*workloadRecord),
	}
	all := &workloadRecord{Correct: true, Metrics: map[string]metricRecord{}}
	for _, w := range selected {
		var wr *workloadRecord
		defs := spec.EndToEnd
		if traced {
			wr, err = traceWorkload(w, bin, seed)
			defs = spec.PerLayer
		} else {
			wr, err = runWorkload(w, bin, seed, seconds)
		}
		if err == nil && len(wr.Metrics) > 0 {
			wr.Metrics, err = named(wr.Metrics, defs)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", w.name, err)
		}
		rec.Workloads[w.name] = wr
		printWorkload(os.Stdout, w.name, wr)
		all.Correct = all.Correct && wr.Correct
		all.Attempted += wr.Attempted
		all.Failed += wr.Failed
		for m, v := range wr.Metrics {
			all.Metrics[w.name+"."+m] = v
		}
	}
	file := fmt.Sprintf("%s-seed%d", rec.Commit, seed)
	if len(selected) == 1 {
		file += "-" + name
	}
	if traced {
		file += "-trace"
	}
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return 0, err
	}
	if err := os.WriteFile(filepath.Join(outDir, file+".json"), append(raw, '\n'), 0o644); err != nil {
		return 0, err
	}
	if len(selected) > 1 {
		printResultLine(os.Stdout, all)
	}
	if !all.Correct {
		return 1, nil
	}
	return 0, nil
}

// runRecord is everything one invocation measured, written to
// bench/out/<commit>-seed<N>[-<workload>][-trace].json.
type runRecord struct {
	Commit string `json:"commit"`
	// Started is when the run began; -compare pairs runs by it.
	Started    time.Time                  `json:"started"`
	Seed       int64                      `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Trace      bool                       `json:"trace"`
	NProc      int                        `json:"nproc"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Go         string                     `json:"go"`
	Workloads  map[string]*workloadRecord `json:"workloads"`
}

// workloadRecord is one workload's part of a run record.
type workloadRecord struct {
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	Reps      int      `json:"reps,omitempty"`
	// TailPercentile is the percentile point_tail_ms reports.
	TailPercentile int `json:"tail_percentile,omitempty"`
	// ProbeMS are the host probe's durations, which scale the wall-time
	// metrics (see probe.go).
	ProbeMS []float64               `json:"probe_ms,omitempty"`
	Metrics map[string]metricRecord `json:"metrics"`
}

// metricRecord is one metric of one workload: the reported value, the
// value as measured before scaling to the reference host speed, the raw
// per-rep values with their median and quartiles, and, for a percentile,
// how many samples it was taken over.
type metricRecord struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Raw     float64   `json:"raw,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
	Summary *summary  `json:"summary,omitempty"`
	Samples int       `json:"samples,omitempty"`
}

// printWorkload prints one line per metric, then the workload's result
// line.
func printWorkload(w io.Writer, name string, wr *workloadRecord) {
	names := make([]string, 0, len(wr.Metrics))
	for m := range wr.Metrics {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		v := wr.Metrics[m]
		fmt.Fprintf(w, "%-16s %-34s %14.6g %-12s", name, m, v.Value, v.Unit)
		if v.Summary != nil {
			fmt.Fprintf(w, " raw %.6g, reps %d, q1 %.6g q3 %.6g", v.Raw, v.Summary.N, v.Summary.Q1, v.Summary.Q3)
		}
		if v.Samples > 0 {
			fmt.Fprintf(w, ", %d samples", v.Samples)
		}
		fmt.Fprintln(w)
	}
	if wr.TailPercentile > 0 {
		fmt.Fprintf(w, "%-16s point_tail_ms is p%d\n", name, wr.TailPercentile)
	}
	if len(wr.ProbeMS) > 0 {
		fmt.Fprintf(w, "%-16s host probe median %.6g ms over %d probes: wall times scaled by %.4g\n",
			name, summarize(wr.ProbeMS).Median, len(wr.ProbeMS), hostFactor(wr.ProbeMS))
	}
	for _, p := range wr.Problems {
		fmt.Fprintf(w, "%-16s CHECK FAILED: %s\n", name, p)
	}
	printResultLine(w, wr)
}

// printResultLine prints the one-line JSON result.
func printResultLine(w io.Writer, wr *workloadRecord) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(wr.Metrics))
	for m, v := range wr.Metrics {
		metrics[m] = value{v.Value, v.Unit}
	}
	raw, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, metrics})
	fmt.Fprintln(w, string(raw))
}

// commitID names the code measured: the short git commit where the tree
// is a git checkout, else "tree-" and a hash of every Go source and
// go.mod outside bench/out.
func commitID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	h := sha256.New()
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == outDir || (path != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" {
			if raw, err := os.ReadFile(path); err == nil {
				fmt.Fprintf(h, "%s %d\n", path, len(raw))
				h.Write(raw)
			}
		}
		return nil
	})
	return "tree-" + hex.EncodeToString(h.Sum(nil))[:12]
}
