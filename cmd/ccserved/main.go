// Command ccserved serves connectivity as a service: a multi-graph query
// engine (internal/service) over HTTP/JSON.  Each named graph is a live
// incremental parcc.Solver session behind a single-writer/many-reader
// discipline — point queries answer lock-free from an immutable label
// snapshot, mutations are coalesced into batches on a per-graph writer.
//
// docs/OPERATIONS.md is the deployment and tuning guide, including the
// full endpoint reference.  Quick start:
//
//	ccserved -addr :8080 &
//	curl -X PUT localhost:8080/graphs/demo -d '{"n":6,"edges":[[0,1],[1,2]]}'
//	curl -X POST localhost:8080/graphs/demo/edges -d '{"edges":[[2,3]]}'
//	curl 'localhost:8080/graphs/demo/connected?u=0&v=3'
//
// Graphs can be preloaded from generator specs at startup:
//
//	ccserved -preload web=expander:n=65536,d=8 -preload mesh=grid:r=256,c=256
//
// Observability: GET /metrics exposes the engine's Prometheus counters and
// the snapshot-publish latency histogram; GET /graphs/{name}/trace returns
// the session's last solve-phase trace (sessions always trace); -pprof
// mounts net/http/pprof under /debug/pprof/ (off by default).  GET /healthz
// is pure liveness (200 while the process serves); GET /readyz is
// readiness — 503 while recovering from the WAL or, on a follower, while
// replication lags beyond -max-lag.
//
// Durability: -wal-dir enables a per-graph write-ahead log — every applied
// mutation group is logged and fsync'd before its callers are released,
// and the logs are replayed on startup, reconstructing every graph at its
// last durable state (see docs/OPERATIONS.md §durability).  On clean
// shutdown each log is compacted to a checkpoint of the live state.
//
// Replication: -follow http://primary:8080 runs this process as a
// read-only follower — it discovers the primary's graphs, tails each
// graph's WAL stream (GET /graphs/{name}/wal), re-applies committed groups
// through real sessions, and serves every read endpoint at exactly the
// versions the primary's log assigned.  Writes are rejected with 409 and
// the primary's URL; -max-lag bounds staleness (see docs/OPERATIONS.md
// §replication).
//
// On SIGINT/SIGTERM the server drains gracefully, in dependency order:
// in-flight HTTP requests finish, replication stops (follower), queued
// mutation batches are applied (each group logged and fsync'd as it
// lands), the WAL handles are checkpointed and closed, then every session
// is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"parcc"
	"parcc/internal/cli"
	"parcc/internal/repl"
	"parcc/internal/service"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		window  = flag.Duration("window", 0, "batch-coalesce window per shard writer (0 = coalesce only what is queued)")
		drain   = flag.Duration("drain", 15*time.Second, "graceful shutdown timeout for in-flight HTTP requests")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (trusted networks only)")
		walDir  = flag.String("wal-dir", "", "write-ahead-log directory: every applied mutation group is logged and fsync'd there before callers are released, and the logs are replayed on startup (empty = durability off)")

		// Replication.
		follow = flag.String("follow", "", "run as a read-only follower of the primary at this base URL (e.g. http://primary:8080); writes are rejected with 409")
		maxLag = flag.Duration("max-lag", 5*time.Second, "follower bounded staleness: /readyz reports 503 once replication lags the primary's head by more than this")

		// HTTP server hardening.  The WAL stream endpoint exempts itself
		// from the write timeout via a per-request deadline.
		readHeaderTO = flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: slow-loris guard on request headers")
		readTO       = flag.Duration("read-timeout", 2*time.Minute, "http.Server ReadTimeout: full-request read deadline (covers large mutation bodies)")
		writeTO      = flag.Duration("write-timeout", 2*time.Minute, "http.Server WriteTimeout: response write deadline (the replication stream is exempt)")
		idleTO       = flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: keep-alive connection reap")
		maxBody      = flag.Int64("max-body", 64<<20, "max mutation request body bytes (413 beyond it; <0 disables the cap)")
	)
	var preloads []string
	flag.Func("preload", "name=genspec graph to create at startup (repeatable), e.g. web=expander:n=65536,d=8", func(s string) error {
		preloads = append(preloads, s)
		return nil
	})
	flag.Parse()

	if *follow != "" {
		// A follower's state comes from the primary's logs, not its own:
		// local durability and preloads contradict that.
		if *walDir != "" {
			fmt.Fprintln(os.Stderr, "ccserved: -follow and -wal-dir are mutually exclusive (the primary's WAL is the follower's source of truth)")
			os.Exit(1)
		}
		if len(preloads) > 0 {
			fmt.Fprintln(os.Stderr, "ccserved: -follow and -preload are mutually exclusive (a follower's graphs come from the primary)")
			os.Exit(1)
		}
	}
	// Sessions run at seed 1 and record their operation traces
	// (GET /graphs/{name}/trace).  A session never solves: its live path
	// runs on the calling goroutine, so it is built one wide and a shard
	// carries no idle worker pool.
	eng := service.New(service.Options{
		Solver:         &parcc.Options{Procs: 1, Seed: 1, Trace: true},
		CoalesceWindow: *window,
		WALDir:         *walDir,
		ReadOnly:       *follow != "",
		Primary:        *follow,
	})

	if *walDir != "" {
		stats, err := eng.Recover()
		if err != nil {
			log.Fatalf("ccserved: recover: %v", err)
		}
		if stats.Graphs > 0 {
			log.Printf("recovered %d graph(s) from %s: %d records, %d edges in %v (%.0f edges/s)",
				stats.Graphs, *walDir, stats.Records, stats.Edges, stats.Elapsed.Round(time.Millisecond),
				float64(stats.Edges)/stats.Elapsed.Seconds())
		}
	}

	for _, p := range preloads {
		name, spec, ok := strings.Cut(p, "=")
		if !ok || name == "" {
			log.Fatalf("ccserved: -preload wants name=genspec, got %q", p)
		}
		g, err := cli.LoadGraph("", spec)
		if err != nil {
			log.Fatalf("ccserved: preload %q: %v", name, err)
		}
		if err := eng.Create(name, g); err != nil {
			if errors.Is(err, service.ErrGraphExists) {
				// Already reconstructed from its WAL — the recovered state
				// is newer than the preload spec, keep it.
				log.Printf("preload %q: recovered from WAL, keeping the replayed state", name)
				continue
			}
			log.Fatalf("ccserved: preload %q: %v", name, err)
		}
		log.Printf("preloaded %q: n=%d m=%d", name, g.N, g.M())
	}

	var follower *repl.Follower
	handlerOpts := service.HandlerOptions{Pprof: *pprofOn, MaxBodyBytes: *maxBody}
	if *follow != "" {
		var err error
		follower, err = repl.New(repl.Options{
			Primary: *follow,
			Engine:  eng,
			MaxLag:  *maxLag,
		})
		if err != nil {
			log.Fatalf("ccserved: follower: %v", err)
		}
		follower.RegisterMetrics(eng.Registry())
		handlerOpts.Readiness = follower.Ready
		follower.Start()
		log.Printf("following primary %s (max lag %v); writes are rejected with 409", *follow, *maxLag)
	}

	handler := service.NewHandlerOpts(eng, handlerOpts)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: *readHeaderTO,
		ReadTimeout:       *readTO,
		WriteTimeout:      *writeTO,
		IdleTimeout:       *idleTO,
	}
	go func() {
		log.Printf("ccserved listening on %s", *addr)
		if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Fatalf("ccserved: %v", err)
		}
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	sig := <-stop
	log.Printf("ccserved: %v — draining (timeout %v)", sig, *drain)
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Printf("ccserved: forced shutdown: %v", err)
	}
	if follower != nil {
		follower.Stop() // stop tailing before the engine releases sessions
	}
	eng.Close() // applies+logs queued batches, checkpoints+closes WALs, releases sessions
	log.Printf("ccserved: drained")
}
