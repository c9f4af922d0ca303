package main

import (
	"math"
	"runtime"
	"sync"
	"time"
)

// The throughput and per-point latency metrics are reported at a
// reference host speed. On a shared virtual machine the daemon's speed
// follows how contended the host's memory system is, and that can drift
// by a third over minutes, more than a change under test would move it. A
// fixed, memory-bound task timed in this process between reps tracks that
// drift, while the same machine's arithmetic speed stays within about a
// tenth. Each run times the probe about once a second; its wall-time
// metrics are multiplied (rates) or divided (durations) by hostFactor. The
// probe runs only benchmark code, so a change to the repository moves the
// scaled metrics as it moves the raw ones; the raw values stay in the run
// record. setup_s and peak_rss_mb are not scaled: process start-up
// follows the probe only weakly, and memory not at all.

// referenceProbe is the probe's duration on the two-vCPU host the
// baseline in bench/README.md was measured on, at its least contended.
// Scaled values read as wall time on that host at that moment.
const referenceProbe = 100 * time.Millisecond

// probeEvery is how often a run times the probe between reps.
const probeEvery = time.Second

// probeSink keeps the probe's work from being optimized away.
var probeSink [daemonWorkers]int

type probeNode struct {
	next *probeNode
	v    [6]uint64
}

// hostProbe times a fixed task on daemonWorkers goroutines, one per core
// the daemon uses: each builds linked nodes and indexes them in a map
// larger than the processor's caches, so it is bound by memory latency
// and allocation as the toolflow is. It starts from a collected heap, so
// what the benchmark itself holds does not change its garbage collection.
func hostProbe() time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for g := range daemonWorkers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			index := make(map[uint64]*probeNode)
			x := uint64(g + 1)
			var head *probeNode
			for i := 0; i < 400_000; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				n := &probeNode{next: head}
				n.v[0] = x
				head = n
				index[x&0x3ffff] = n
				if i%50_000 == 0 {
					head = nil
				}
			}
			probeSink[g] = len(index)
		}()
	}
	wg.Wait()
	return time.Since(start)
}

// hostElasticity is how strongly the workloads' wall times follow the
// probe: fitting log wall time against log probe time over ten runs of
// each workload gave slopes of 0.53 to 1.11 for the scaled metrics, with
// 0.75 leaving the least run-to-run spread overall (bench/README.md).
const hostElasticity = 0.75

// hostFactor is how much slower than the reference the host ran: the
// median probe duration over referenceProbe, to the power hostElasticity.
func hostFactor(probeMS []float64) float64 {
	ratio := summarize(probeMS).Median / (float64(referenceProbe) / float64(time.Millisecond))
	return math.Pow(ratio, hostElasticity)
}
