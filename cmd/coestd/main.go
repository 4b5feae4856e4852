// Command coestd is the long-running power co-estimation daemon: an
// HTTP/JSON service over warm pkg/coest sessions (internal/serve). Each
// design is compiled once — software image, gate netlists, shared macro
// tables — and repeat requests ride the warm session and its persistent
// energy caches instead of recompiling.
//
//	coestd -addr localhost:8350 -debug-addr localhost:6060
//
// Endpoints:
//
//	POST /estimate        — estimate one design at one or more configuration
//	                        points (coalesced into a single batched sweep);
//	                        429 + Retry-After once -workers + -queue
//	                        requests are in the system
//	POST /snapshot        — serialize one warm session
//	POST /restore         — install a snapshot as a warm session
//	GET  /healthz         — liveness (200 while the process serves)
//	GET  /readyz          — routability; 503 from the first shutdown signal
//	GET  /debug/requests  — recent request traces (also on -debug-addr);
//	                        ?trace=<id> for one span tree, &format=chrome
//	                        for a chrome://tracing flame graph
//
// Every /estimate response carries an X-Coest-Trace-Id header; inbound
// X-Coest-Trace-Id/X-Coest-Parent-Span headers are adopted so a front-end
// router can stitch cross-node traces.
//
// The -debug-addr server exposes /metrics (request counters, queue depth,
// per-stage and per-endpoint latency histograms, estimator work counters),
// /debug/requests and /debug/pprof/.
//
// On SIGINT/SIGTERM the daemon flips /readyz to 503, waits -lame-duck for
// load balancers to stop routing, stops admitting work (503), finishes
// queued and in-flight requests within -drain-timeout, then exits — taking
// the debug server down with it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ecachesync"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr         = flag.String("addr", "localhost:8350", "listen address for the estimation API")
		debugAddr    = flag.String("debug-addr", "", "serve /metrics, /debug/requests and /debug/pprof/ on this address (empty = off)")
		workers      = flag.Int("workers", 2, "requests estimated concurrently")
		queue        = flag.Int("queue", 8, "requests queued beyond the in-flight ones before 429")
		pointWorkers = flag.Int("point-workers", 4, "per-request batch parallelism (grid points at once)")
		deadline     = flag.Duration("deadline", 30*time.Second, "default per-request wall-clock deadline")
		retryAfter   = flag.Duration("retry-after", time.Second, "Retry-After hint on 429 responses")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "how long to wait for in-flight requests on shutdown")
		lameDuck     = flag.Duration("lame-duck", 0, "pause between flipping /readyz unready and starting the drain (load-balancer deregistration window)")
		traceRing    = flag.Int("trace-ring", 64, "completed request traces kept for /debug/requests (negative = tracing off)")
		slowThresh   = flag.Duration("slow-threshold", 0, "requests at least this slow are flagged and kept in the slow-capture ring (0 = off)")
		maxSpans     = flag.Int("max-spans", 0, "spans captured per request before dropping (0 = default 2048)")
		accessLog    = flag.String("access-log", "", "append JSONL access lines (with trace ids) to this file, \"-\" for stderr (empty = off)")

		shardName   = flag.String("shard-name", "", "fleet shard identity echoed on every response (empty = standalone)")
		ecacheSync  = flag.String("ecache-sync", "", "fleet energy-cache store URL (e.g. http://router:8400/ecache/sync; empty = no cache sync)")
		ecacheIntv  = flag.Duration("ecache-sync-interval", 2*time.Second, "write-behind period of the fleet cache sync")
		restorePath = flag.String("restore", "", "restore warm sessions on boot from this snapshot file (the bytes of POST /snapshot)")
	)
	flag.Parse()

	var accessW *os.File
	switch *accessLog {
	case "":
	case "-":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		accessW = f
	}

	cfg := serve.Config{
		Workers:            *workers,
		Queue:              *queue,
		PointWorkers:       *pointWorkers,
		DefaultDeadline:    *deadline,
		RetryAfter:         *retryAfter,
		TraceRing:          *traceRing,
		MaxSpans:           *maxSpans,
		SlowThreshold:      *slowThresh,
		ShardName:          *shardName,
		ECacheSyncInterval: *ecacheIntv,
	}
	if accessW != nil {
		cfg.AccessLog = accessW
	}
	if *ecacheSync != "" {
		cfg.ECacheStore = &ecachesync.HTTPStore{URL: *ecacheSync}
	}
	srv := serve.New(cfg)

	if *restorePath != "" {
		// Restore-on-boot: the node comes up with the snapshot's design
		// already warm, so its first request skips the cold compile.
		data, err := os.ReadFile(*restorePath)
		if err != nil {
			fatal(err)
		}
		restored, err := srv.RestoreSnapshot(data)
		if err != nil {
			fatal(fmt.Errorf("restoring %s: %w", *restorePath, err))
		}
		fmt.Fprintf(os.Stderr, "coestd: restored warm session %s/%d (%d cache paths)\n",
			restored.System, restored.Packets, restored.Paths)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		// The request-trace ring rides the debug endpoint next to /metrics;
		// the context ties the debug server to the same SIGTERM lifecycle as
		// the main listener, so drain terminates both cleanly.
		telemetry.RegisterDebug("/debug/requests", srv.DebugRequestsHandler())
		dbg, shutdown, err := telemetry.ServeDebugContext(ctx, *debugAddr)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "coestd: debug endpoint on http://%s/ (/metrics, /debug/requests, /debug/pprof/)\n", dbg)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "coestd: serving on http://%s/ (POST /estimate)\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills immediately

	// Lame-duck first: /readyz goes 503 while /estimate still works, giving
	// load balancers a window to deregister the node before real requests
	// start seeing 503s from the drain.
	srv.Unready()
	if *lameDuck > 0 {
		fmt.Fprintf(os.Stderr, "coestd: lame duck for %v (/readyz now 503)...\n", *lameDuck)
		time.Sleep(*lameDuck)
	}

	fmt.Fprintln(os.Stderr, "coestd: draining (new requests get 503)...")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "coestd:", err)
	}
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "coestd: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "coestd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coestd:", err)
	os.Exit(1)
}
