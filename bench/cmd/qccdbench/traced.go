package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"repro/internal/cache"
)

// traceWorkload runs one rep of w against the daemon with tracing off,
// then replays the same inputs in this process three times and reports
// the per-layer metrics. Every replayed row must equal the daemon's.
func traceWorkload(w *workload, bin string, seed int64) (*workloadRecord, error) {
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

	d, err := startDaemon(bin, hc, daemonArgs(w, tmp)...)
	if err != nil {
		return nil, err
	}
	e2e, err := drive(httpTarget{hc, d.base}, w, in, chk)
	var st cache.StoreStats
	if err == nil {
		st, err = checkComputes(d, hc, w.computes*len(in.points))
	}
	d.stop()
	if err != nil {
		return nil, fmt.Errorf("daemon rep: %w", err)
	}

	// Three in-process replays of the same rep: untraced, for the tracing
	// overhead and the service residual; traced, for the service-side
	// layers; and traced with each computed point re-derived right after
	// it is computed, for the compute-side layers and the reconciliation.
	// Each starts from a heap returned to the OS, as the daemon's fresh
	// process does.
	replay := func(rec *recorder, reconcile bool) (*inproc, repOut, error) {
		debug.FreeOSMemory()
		e, err := newInproc(w, seededDir(tmp), rec, reconcile)
		if err != nil {
			return nil, repOut{}, err
		}
		out, err := drive(e, w, in, chk)
		wr.Attempted += perRep
		wr.Failed += out.failed
		return e, out, err
	}
	_, plain, err := replay(nil, false)
	if err != nil {
		return nil, fmt.Errorf("untraced replay: %w", err)
	}
	traced, tr, err := replay(newRecorder(), false)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	recon, _, err := replay(newRecorder(), true)
	if err != nil {
		return nil, fmt.Errorf("reconciling replay: %w", err)
	}
	wr.Attempted += perRep
	wr.Failed += e2e.failed
	if recon.rederiveErr != nil {
		chk.report("re-derive: %v", recon.rederiveErr)
	}
	if recon.sums.compileAllocs, recon.sums.simAllocs, err = recon.countAllocs(); err != nil {
		chk.report("re-derive: %v", err)
	}
	if got, want := countsOf(traced.store.StoreStats()), countsOf(st); got != want {
		chk.report("in-process cache counts %+v differ from the daemon's %+v", got, want)
	}
	m := layerMetrics(traced, recon, tr.wall, plain.wall, e2e.wall)
	for name, v := range m {
		wr.Metrics[name] = metricRecord{Value: v}
	}
	if err := writeTrace(filepath.Join(outDir, w.name+".trace.json"), w.name, traced.rec.spans, recon.rec.spans); err != nil {
		return nil, err
	}
	finishChecks(wr, checks)
	return wr, nil
}

// storeCounts are the cache counters that must agree exactly between the
// daemon and the in-process replay of the same rep.
type storeCounts struct {
	Computes, DiskReads, DiskWrites uint64
}

func countsOf(st cache.StoreStats) storeCounts {
	c := storeCounts{Computes: st.Computes}
	if st.Disk != nil {
		c.DiskReads, c.DiskWrites = st.Disk.Reads, st.Disk.Writes
	}
	return c
}

// layerMetrics derives the per-layer metrics: service-side layers from
// the traced replay, compute-side layers and the reconciliation from the
// reconciling replay.
func layerMetrics(traced, recon *inproc, tracedWall, plainWall, e2eWall time.Duration) map[string]float64 {
	st, rt, l := selfTimes(traced.rec.spans), selfTimes(recon.rec.spans), recon.sums
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}
	m := map[string]float64{
		"compiler.Compile.calls":           float64(l.compile.calls),
		"compiler.Compile.self_ms":         l.compile.ms(),
		"compiler.Compile.allocs_per_call": ratio(float64(l.compileAllocs), float64(l.compile.calls)),
		"compiler.ops_emitted":             float64(l.ops),
		"sim.Run.calls":                    float64(l.simRun.calls),
		"sim.Run.self_ms":                  l.simRun.ms(),
		"sim.Run.ns_per_op":                ratio(float64(l.simRun.selfNS), float64(l.ops)),
		"sim.Run.allocs_per_call":          ratio(float64(l.simAllocs), float64(l.simRun.calls)),
		"apps.ByName.calls":                float64(l.byName.calls),
		"apps.ByName.self_ms":              l.byName.ms(),
		"device.Parse.calls":               float64(l.parse.calls),
		"device.Parse.self_ms":             l.parse.ms(),
		"core.CacheKey.calls":              float64(st["core.CacheKey"].calls),
		"core.CacheKey.self_ms":            st["core.CacheKey"].ms(),
		"core.Toolflow.Do.self_ms":         st["core.Toolflow.Do"].ms(),
		"core.compute.ms":                  rt["core.compute"].ms(),
		"cache.Store.Do.calls":             float64(st["cache.Store.Do"].calls),
		"cache.Store.Do.self_ms":           st["cache.Store.Do"].ms(),
		"cache.OpenDisk.ms":                ms(traced.openDisk.Nanoseconds()),
		"sweep.Compile.self_ms":            st["sweep.Compile"].ms(),
		"sweep.PointAt.self_ms":            st["sweep.PointAt"].ms(),
		"sweep.Cursor.self_ms":             st["sweep.Cursor"].ms(),
		"service.encode.calls":             float64(st["service.encode"].calls),
		"service.encode.self_ms":           st["service.encode"].ms(),
		"service.encode.bytes":             float64(traced.encoded.Load()),
		"service.decode.self_ms":           st["service.decode"].ms(),
		"service.residual_ms":              ms((e2eWall - plainWall).Nanoseconds()),
		"trace.wall_ms":                    ms(tracedWall.Nanoseconds()),
		"trace.overhead_share":             tracedWall.Seconds()/plainWall.Seconds() - 1,
	}
	for _, p := range []string{"baseline", "lookahead", "congestion"} {
		m["compiler.Compile.self_ms."+p] = ms(l.compileByPolicy[p])
	}
	for _, f := range []string{"linear", "grid", "grid3", "mesh", "ring", "mod"} {
		m["sim.Run.self_ms."+f] = ms(l.simByFamily[f])
	}

	counts := countsOf(traced.store.StoreStats())
	mem := traced.store.StoreStats().Memory
	m["cache.disk_reads"] = float64(counts.DiskReads)
	m["cache.hit_ratio"] = ratio(float64(mem.Hits+mem.Shared+counts.DiskReads), float64(mem.Hits+mem.Shared+mem.Misses))

	// Unattributed time is what the point (or request) spans spent outside
	// every child layer span, plus what the computations took beyond their
	// re-derivation, as a share of all point span time.
	var rootNS int64
	for _, s := range recon.rec.spans {
		if s.Name == "point" || s.Name == "request" {
			rootNS += s.End - s.Start
		}
	}
	gap := rt["point"].selfNS + rt["request"].selfNS + rt["core.compute"].selfNS - l.total()
	m["trace.unattributed_share"] = ratio(float64(gap), float64(rootNS))
	return m
}
