package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cache"
)

// minSetupSamples is the fewest daemon starts setup_s is the median of;
// workloads with fewer reps add starts that run no requests.
const minSetupSamples = 21

// httpTarget sends a rep's requests to a running daemon.
type httpTarget struct {
	hc   *http.Client
	base string
}

func (t httpTarget) sweep(body []byte, onRow func(row)) error {
	return sweepOnce(t.hc, t.base, body, onRow)
}

func (t httpTarget) run(body []byte) (row, error) {
	return runOnce(t.hc, t.base, body)
}

// daemonArgs are the qccdd flags of w's daemon: a seeded workload's
// mounts the seeded cache directory under tmp.
func daemonArgs(w *workload, tmp string) []string {
	args := []string{"-workers", fmt.Sprint(daemonWorkers)}
	if w.seeded {
		args = append(args, "-cache-dir", seededDir(tmp))
	}
	return args
}

func seededDir(tmp string) string { return filepath.Join(tmp, "seeded") }

// e2eSamples collects the measurements of one untraced run.
type e2eSamples struct {
	rate, p50, tail, rss, setup []float64
	// byRow holds each row position's elapsed_us from every rep.
	byRow [][]int64
	// probeMS are the host probe's durations (see probe.go).
	probeMS []float64
	// tailP is the percentile point_tail_ms reports.
	tailP int
}

// e2eMetrics computes the end-to-end metrics, by name, from one run's
// samples. Per-point latency is taken over the row positions' medians
// (see rowMedians). Throughput and per-point latency are scaled to the
// reference host speed (see probe.go); Raw keeps the value as measured, and
// Reps and Summary the raw per-rep values.
func e2eMetrics(s e2eSamples) map[string]metricRecord {
	meds := rowMedians(s.byRow)
	h := hostFactor(s.probeMS)
	rec := func(raw, scale float64, reps []float64, samples int) metricRecord {
		sum := summarize(reps)
		return metricRecord{Value: raw * scale, Raw: raw, Reps: reps, Summary: &sum, Samples: samples}
	}
	return map[string]metricRecord{
		"points_per_s":  rec(summarize(s.rate).Median, h, s.rate, 0),
		"point_p50_ms":  rec(quantileF(meds, 0.5)/1e3, 1/h, s.p50, len(meds)),
		"point_tail_ms": rec(quantileF(meds, float64(s.tailP)/100)/1e3, 1/h, s.tail, len(meds)),
		"setup_s":       rec(summarize(s.setup).Median, 1, s.setup, 0),
		"peak_rss_mb":   rec(summarize(s.rss).Median, 1, s.rss, 0),
	}
}

// runWorkload measures w against fresh daemons, one per rep, until both
// minReps reps and the measured time have passed.
func runWorkload(w *workload, bin string, seed int64, seconds time.Duration) (*workloadRecord, error) {
	in, err := w.build(seed)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(outDir, "tmp"), w.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	wr := &workloadRecord{Metrics: map[string]metricRecord{}}
	checks, err := seedCache(w, bin, hc, in, tmp, wr)
	if err != nil {
		return nil, err
	}
	chk := newChecker(in, w.computes)
	checks = append(checks, chk)
	perRep := in.pointsPerRep()
	s := e2eSamples{byRow: make([][]int64, perRep)}
	// With fewer than 20 row positions no percentile above the median has
	// ten beyond it, and the tail is the slowest position.
	var ok bool
	if s.tailP, ok = tailPercentile(perRep); !ok {
		s.tailP = 100
	}
	wr.TailPercentile = s.tailP
	start := time.Now()
	var lastProbe time.Time
	for rep := 0; rep < w.minReps || time.Since(start) < seconds; rep++ {
		if time.Since(lastProbe) >= probeEvery {
			s.probeMS = append(s.probeMS, float64(hostProbe())/float64(time.Millisecond))
			lastProbe = time.Now()
		}
		d, err := startDaemon(bin, hc, daemonArgs(w, tmp)...)
		if err != nil {
			return nil, err
		}
		out, err := drive(httpTarget{hc, d.base}, w, in, chk)
		var rss float64
		if err == nil {
			rss, err = d.peakRSSMB()
		}
		if err == nil {
			_, err = checkComputes(d, hc, w.computes*len(in.points))
		}
		d.stop()
		wr.Attempted += perRep
		wr.Failed += out.failed
		if err != nil {
			wr.Failed += perRep - out.points
			chk.report("rep %d: %v", rep, err)
			break
		}
		wr.Reps++
		pts := sortedCopy(out.pointUS)
		s.rate = append(s.rate, float64(out.points)/out.wall.Seconds())
		s.p50 = append(s.p50, quantile(pts, 0.5)/1e3)
		s.tail = append(s.tail, quantile(pts, float64(s.tailP)/100)/1e3)
		s.rss = append(s.rss, rss)
		s.setup = append(s.setup, d.setup.Seconds())
		for pos, us := range out.pointUS {
			s.byRow[pos] = append(s.byRow[pos], us)
		}
	}
	for wr.Reps > 0 && len(s.setup) < minSetupSamples {
		d, err := startDaemon(bin, hc, daemonArgs(w, tmp)...)
		if err != nil {
			return nil, err
		}
		d.stop()
		s.setup = append(s.setup, d.setup.Seconds())
	}
	if wr.Reps > 0 {
		s.probeMS = append(s.probeMS, float64(hostProbe())/float64(time.Millisecond))
		wr.ProbeMS = s.probeMS
		wr.Metrics = e2eMetrics(s)
	}
	finishChecks(wr, checks)
	return wr, nil
}

// seedCache fills a seeded workload's cache directory with one untimed
// pass against a daemon that computes every point, as the replicas that
// share the directory would. It returns the pass's checker, or none for a
// workload without a seeded cache.
func seedCache(w *workload, bin string, hc *http.Client, in *inputs, tmp string, wr *workloadRecord) ([]*checker, error) {
	if !w.seeded {
		return nil, nil
	}
	d, err := startDaemon(bin, hc, "-workers", fmt.Sprint(daemonWorkers), "-cache-dir", seededDir(tmp))
	if err != nil {
		return nil, err
	}
	defer d.stop()
	chk := newChecker(in, 1)
	out, err := drive(httpTarget{hc, d.base}, w, in, chk)
	wr.Attempted += in.pointsPerRep()
	wr.Failed += out.failed
	if err != nil {
		return nil, fmt.Errorf("seed the cache: %w", err)
	}
	return []*checker{chk}, nil
}

// checkComputes reads the daemon's cache counters and compares its
// compute count with the number of computations the rep should have
// caused.
func checkComputes(d *daemon, hc *http.Client, want int) (cache.StoreStats, error) {
	st, err := d.storeStats(hc)
	if err == nil && st.Computes != uint64(want) {
		err = fmt.Errorf("/v1/cache reports %d computes, want %d", st.Computes, want)
	}
	return st, err
}

// finishChecks folds the checkers' verdicts into the record.
func finishChecks(wr *workloadRecord, checks []*checker) {
	wr.Correct = true
	for _, c := range checks {
		c.mu.Lock()
		if c.nProblem > 0 {
			wr.Correct = false
			wr.Problems = append(wr.Problems, c.problems...)
			if extra := c.nProblem - len(c.problems); extra > 0 {
				wr.Problems = append(wr.Problems, fmt.Sprintf("... and %d more", extra))
			}
		}
		c.mu.Unlock()
	}
}
