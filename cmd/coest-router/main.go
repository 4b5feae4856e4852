// Command coest-router fronts a fleet of coestd shards: it consistent-hashes
// each design onto its owning shard (so the fleet compiles every design
// exactly once and repeat requests always hit a warm session), skips shards
// whose /readyz fails, retries with backoff, optionally hedges slow
// requests onto the ring successor, and hosts the fleet's central
// energy-cache store at /ecache/sync.
//
//	coest-router -addr localhost:8400 \
//	    -shard a=http://localhost:8351 -shard b=http://localhost:8352
//
// Shards point their -ecache-sync at http://<router>/ecache/sync to share
// energy-cache warmth, and their -shard-name must match the name given
// here so placement and response attribution agree.
//
// Endpoints: POST /estimate, /snapshot, /restore (routed); GET /shards
// (membership + health), /healthz, /readyz (200 while at least one shard
// is routable); POST /ecache/sync (the central cache store). A shard's 429
// is retried on the same shard with backoff and relayed, Retry-After
// intact, once the retries run out.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/router"
	"repro/internal/telemetry"
)

// shardFlags collects repeated -shard name=url flags.
type shardFlags []router.Shard

func (s *shardFlags) String() string {
	parts := make([]string, len(*s))
	for i, sh := range *s {
		parts[i] = sh.Name + "=" + sh.URL
	}
	return strings.Join(parts, ",")
}

func (s *shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	*s = append(*s, router.Shard{Name: name, URL: strings.TrimSuffix(url, "/")})
	return nil
}

func main() {
	var shards shardFlags
	var (
		addr      = flag.String("addr", "localhost:8400", "listen address for the fleet API")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address (empty = off)")
		replicas  = flag.Int("replicas", 64, "virtual nodes per shard on the hash ring")
		retries   = flag.Int("retries", 2, "additional attempts after the first per request")
		backoff   = flag.Duration("retry-backoff", 50*time.Millisecond, "base backoff between attempts (doubled each retry)")
		hedge     = flag.Duration("hedge-after", 0, "hedge a slow /estimate onto the ring successor after this delay (0 = off)")
		probe     = flag.Duration("probe-interval", time.Second, "shard /readyz probe period")
	)
	flag.Var(&shards, "shard", "fleet member as name=url (repeatable)")
	flag.Parse()

	rt, err := router.New(router.Config{
		Shards:        shards,
		Replicas:      *replicas,
		Retries:       *retries,
		RetryBackoff:  *backoff,
		HedgeAfter:    *hedge,
		ProbeInterval: *probe,
	})
	if err != nil {
		fatal(err)
	}
	defer rt.Stop()
	rt.CheckNow(context.Background())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *debugAddr != "" {
		dbg, shutdown, err := telemetry.ServeDebugContext(ctx, *debugAddr)
		if err != nil {
			fatal(err)
		}
		defer shutdown()
		fmt.Fprintf(os.Stderr, "coest-router: debug endpoint on http://%s/ (/metrics, /debug/pprof/)\n", dbg)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: rt}
	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "coest-router: fronting %d shards on http://%s/\n", len(shards), *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	stop()
	sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer scancel()
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "coest-router: shutdown:", err)
	}
	fmt.Fprintln(os.Stderr, "coest-router: bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "coest-router:", err)
	os.Exit(1)
}
