// Command tdxd is the temporal data exchange daemon: an HTTP server
// holding a registry of compiled exchanges (mapping-hash keyed,
// LRU-bounded, singleflight-deduplicated compilation) and running data
// exchange against them with request-scoped sources. The mapping is
// compiled once and amortized over every request; each run is one
// sequential c-chase on its request's goroutine (requests run
// concurrently), bounded by a per-request deadline, and interns into its
// own overlay on its source's frozen value interner, so a long-lived
// daemon's memory tracks the registered mappings and cached sources,
// not the request traffic.
//
// Usage:
//
//	tdxd [-addr :8080] [-max-mappings 64] [-max-sessions 64] [-max-timeout 60s]
//	     [-max-inflight 0] [-queue-wait 2s] [-max-body 64MiB] [-access-log] [-drain 10s]
//	     [-pprof addr] [-state DIR] [-max-run-snapshots 128]
//
// Endpoints (see package repro/internal/server and the README for the
// full API):
//
//	POST   /v1/mappings                   register (compile) a mapping → hash
//	GET    /v1/mappings                   list registered mappings
//	POST   /v1/exchanges/{hash}/run       chase the body source → solution + stats
//	POST   /v1/exchanges/{hash}/answer    certain answers (?query=)
//	POST   /v1/exchanges/{hash}/snapshot  abstract snapshot (?at=)
//	POST   /v1/exchanges/{hash}/sessions  open an incremental session over the body source
//	POST   /v1/sessions/{id}/facts        ingest a delta of new facts → solution diff
//	DELETE /v1/sessions/{id}              drop a session
//	GET    /healthz                       liveness + registry/session/admission counters
//	GET    /metrics                       Prometheus text exposition of the same counters
//
// Solution-bearing responses are framed and streamed: the solution
// document is encoded straight off the frozen columnar store in bounded
// chunks, so serving a huge solution never stages it in memory. With
// -max-inflight N at most N chases run concurrently; the overflow
// queues up to -queue-wait for a freed slot and is then rejected with
// 429, so a burst degrades to bounded latency instead of unbounded
// memory. -max-body caps request bodies (413 beyond it).
//
// Sessions are the incremental path: opening one chases the body source
// once and pins the frozen solution; each posted delta then runs the
// semi-naive delta chase (byte-identical to re-chasing everything, but
// touching only what the new facts reach) and answers with the solution
// diff. Live sessions are LRU-bounded (-max-sessions) because each pins
// its solution plus the retained chase state.
//
// With -state DIR the daemon persists warm-start state under DIR:
// registered mappings (canonical text) and live sessions ride a
// manifest, chased solutions ride mmap-able columnar snapshots
// (internal/snapshot). On boot the manifest is replayed — mappings
// recompile without counting as request-driven compiles, sessions
// resume from their snapshots — so a restarted daemon serves its first
// /run from the snapshot cache, byte-identical to the pre-restart
// response.
//
// Several daemons need no coordination: an exchange's hash is the
// content hash of its canonical mapping and output-affecting options, so
// every daemon that registers the same mapping serves it under the same
// hash with the same bytes. A client that gets 404 for a hash re-POSTs
// the mapping with the same envelope and retries (see the README's
// "Several daemons" section).
//
// Shutdown is graceful: on SIGTERM or SIGINT the listener closes, then
// in-flight runs get a drain window to finish; runs still going when it
// lapses are canceled through the engine's context plumbing, so the
// process exits promptly with no goroutine left chasing.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof" // debug listener endpoints; see -pprof
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	maxMappings := flag.Int("max-mappings", server.DefaultCapacity, "registry capacity: compiled exchanges kept resident (LRU eviction beyond it)")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "live incremental-session capacity (LRU eviction beyond it; each session pins a solution and its retained chase state)")
	maxTimeout := flag.Duration("max-timeout", server.DefaultMaxTimeout, "per-request run budget cap (and default when a request names none)")
	maxInflight := flag.Int("max-inflight", 0, "concurrent chase bound: beyond it chases queue up to -queue-wait, then 429; 0 means unlimited")
	queueWait := flag.Duration("queue-wait", server.DefaultQueueWait, "how long an over--max-inflight chase queues for a slot before 429")
	maxBody := flag.Int64("max-body", server.DefaultMaxBody, "request body size cap in bytes (413 beyond it)")
	accessLog := flag.Bool("access-log", false, "log one structured line per request (method, path, status, bytes, duration)")
	drain := flag.Duration("drain", 10*time.Second, "shutdown drain window for in-flight requests")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off when empty")
	stateDir := flag.String("state", "", "persist warm-start state (mapping manifest, session and run snapshots) under this directory; off when empty")
	maxRunSnapshots := flag.Int("max-run-snapshots", server.DefaultMaxRunSnapshots, "disk run-cache bound under -state DIR/runs (oldest snapshots pruned beyond it)")
	flag.Parse()

	cfg := server.Config{
		MaxMappings:     *maxMappings,
		MaxSessions:     *maxSessions,
		MaxTimeout:      *maxTimeout,
		MaxInflight:     *maxInflight,
		QueueWait:       *queueWait,
		MaxBodyBytes:    *maxBody,
		StateDir:        *stateDir,
		MaxRunSnapshots: *maxRunSnapshots,
	}
	if *accessLog {
		cfg.AccessLogf = log.Printf
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("tdxd: %v", err)
	}
	if *stateDir != "" {
		if err := srv.WarmStart(); err != nil {
			log.Fatalf("tdxd: warm start: %v", err)
		}
		log.Printf("tdxd: state dir %s (run-cache bound %d)", *stateDir, *maxRunSnapshots)
	}

	// baseCtx underlies every request context: canceling it aborts
	// in-flight chases through the engine's context plumbing — the
	// hard-stop half of graceful shutdown.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}

	// The profiling listener is opt-in and separate from the serving mux:
	// the API handler above is a custom mux without the pprof routes, so
	// enabling -pprof never exposes profiles on the public address. The
	// pprof import registers its handlers on http.DefaultServeMux, which
	// only this debug server uses.
	if *pprofAddr != "" {
		go func() {
			log.Printf("tdxd pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("tdxd: pprof listener: %v", err)
			}
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("tdxd listening on %s (registry capacity %d, max timeout %v)", *addr, *maxMappings, *maxTimeout)
		errc <- hs.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// The listener failed before any signal (port in use, ...).
		log.Fatalf("tdxd: %v", err)
	case <-ctx.Done():
	}
	log.Printf("tdxd: shutting down (draining up to %v)", *drain)
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil {
		// The drain window lapsed with runs still in flight: cancel them
		// through their contexts and close the remaining connections.
		log.Printf("tdxd: drain window lapsed, canceling in-flight runs: %v", err)
		baseCancel()
		if err := hs.Close(); err != nil {
			log.Printf("tdxd: close: %v", err)
		}
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("tdxd: %v", err)
	}
	fmt.Fprintln(os.Stderr, "tdxd: bye")
}
