// Command qccdd serves the QCCD design toolflow over HTTP/JSON: single
// design-point runs, batch sweeps with streamed NDJSON outcomes, and
// introspection of the built-in benchmarks, topologies and physical
// parameters. All requests share one content-addressed outcome cache, so
// repeated design points — within a sweep, across sweeps, or across
// clients — are computed once.
//
// Large design-space searches are expressed as a sweep grammar instead of
// a materialized point list: the server validates the grammar up front,
// expands the cross product lazily, and streams rows in a stable order
// with per-row resume cursors, so a dropped client can continue without
// recomputation.
//
// Usage:
//
//	qccdd [-addr :8080] [-cache 4096] [-workers N] [-max-space 10000000]
//	      [-params FILE] [-cache-dir DIR] [-cache-disk-max BYTES]
//
// A sweep streams its rows in input order, with a header, per-row resume
// cursors and a summary, whether it names a grammar or a points list;
// -max-space caps the design points one sweep request streams.
//
// With -cache-dir the outcome cache gains a persistent disk tier:
// computed outcomes are written through to DIR and survive restarts, and
// the directory may be shared by many replicas (e.g. on one mounted
// volume), each serving a disjoint "shard" of the same sweep grammar. A
// fresh replica re-serving known work performs zero computations.
//
// Example session:
//
//	qccdd -addr :8080 &
//	curl -s localhost:8080/v1/apps
//	curl -s -X POST localhost:8080/v1/run \
//	  -d '{"point":{"app":"QFT","topology":"L6","capacity":22,"gate":"FM","reorder":"GS"}}'
//	curl -sN -X POST localhost:8080/v1/sweep \
//	  -d '{"space":{"apps":["BV","QFT"],"topologies":["L6","G2x3"],"capacities":[14,18,22]}}'
//	curl -s localhost:8080/v1/sweeps/<id>   # progress of an in-flight sweep
//
// The daemon drains in-flight requests on SIGINT/SIGTERM before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/models"
	"repro/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("qccdd: ")
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		cacheSize = flag.Int("cache", 4096, "outcome cache entries (negative: unbounded)")
		workers   = flag.Int("workers", 0, "max per-request sweep workers (0: GOMAXPROCS)")
		maxSpace  = flag.Int64("max-space", 10_000_000, "max design points one sweep request streams (the size of its window)")
		paramsIn  = flag.String("params", "", "JSON file overriding the physical model parameters")
		cacheDir  = flag.String("cache-dir", "", "directory for the persistent outcome-cache tier (sharable between replicas)")
		diskMax   = flag.Int64("cache-disk-max", 0, "max bytes of the persistent cache tier, oldest evicted first (0: unbounded)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments: %v", flag.Args())
	}

	params := models.Default()
	if *paramsIn != "" {
		data, err := os.ReadFile(*paramsIn)
		if err != nil {
			log.Fatal(err)
		}
		if params, err = models.LoadJSON(data); err != nil {
			log.Fatal(err)
		}
	}
	srv, err := service.New(service.Config{
		Params:            params,
		CacheEntries:      *cacheSize,
		MaxWorkers:        *workers,
		MaxSpacePoints:    *maxSpace,
		CacheDir:          *cacheDir,
		CacheDiskMaxBytes: *diskMax,
	})
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s (params %s)", *addr, params)
		errc <- hs.ListenAndServe()
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	log.Print("shutting down, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("shutdown: %v", err)
	}
	st := srv.StoreStats()
	if st.Disk != nil {
		log.Printf("computed %d design points, %d cache reuses, disk tier: %d reads, %d writes, %d entries",
			st.Computes, st.Memory.Hits+st.Memory.Shared, st.Disk.Reads, st.Disk.Writes, st.Disk.Entries)
	} else {
		log.Printf("served %d unique design points, %d cache reuses", st.Memory.Misses, st.Memory.Hits+st.Memory.Shared)
	}
}
