// Package server is tdxd's HTTP front end over the public tdx engine
// API: a daemon holding a registry of compiled exchanges and serving
// data exchange over HTTP. The mapping is the fixed artifact, so it is
// compiled once — POST /v1/mappings registers a mapping text and returns
// the content hash identifying its compiled exchange — and every
// subsequent request addresses the compiled exchange by hash with a
// request-scoped source instance in the body:
//
//	POST   /v1/mappings                     register (compile) a mapping → hash
//	GET    /v1/mappings                     list registered mappings, MRU first
//	POST   /v1/exchanges/{hash}/run         chase the body source → solution + stats
//	POST   /v1/exchanges/{hash}/answer      certain answers of ?query= over the solution
//	POST   /v1/exchanges/{hash}/snapshot    abstract snapshot db_at of the solution (?at=)
//	POST   /v1/exchanges/{hash}/sessions    chase the body source once, open an incremental session
//	POST   /v1/sessions/{id}/facts          ingest new source facts → solution diff (semi-naive delta chase)
//	DELETE /v1/sessions/{id}                drop a session
//	GET    /healthz                         liveness + registry/session/admission counters
//	GET    /metrics                         Prometheus text exposition of the same counters
//
// Request bodies are either the TDX JSON instance format (Content-Type
// application/json) or the TDX fact text format (any other content
// type). Exchange-endpoint bodies are read fully (bounded by
// MaxBodyBytes) and content-hashed: the hash keys an in-memory LRU of
// the last 32 decoded source instances and — with a state directory —
// the disk cache of chased solutions, so re-posting a document skips
// decoding, and re-running one skips the chase entirely.
// Per-request query parameters ride the engine's functional
// options: ?timeout= bounds the run through the existing context
// plumbing (capped by the server's MaxTimeout), and ?norm=, ?egd= and
// ?coalesce= override the exchange's compile-time defaults for that run
// only. Unknown parameters are ignored.
//
// Memory bounding is structural: the registry is LRU-bounded
// (MaxMappings), compilation of concurrent duplicate registrations is
// singleflight-deduplicated, and a compiled exchange holds no value
// interner. A decoded source is frozen, interner included, before it is
// cached, and every run — session deltas too — interns into its own
// overlay on its source's frozen interner, which is read without locks:
// no run writes an interner that another request can see, so a cached
// source's interner holds exactly the source's values however often it
// is run (tdxd_source_cache_values on /metrics). Sessions — which pin a
// solution plus the chase state retained for incremental deltas — are
// LRU-bounded the same way (MaxSessions).
//
// The response side is bounded too: solution-bearing responses are
// framed (stream.go) — the small head fields marshal normally, then the
// solution document streams straight off the frozen columnar store, so
// serving an n-fact solution never stages an n-sized buffer.
// Admission control bounds the chase concurrency itself: with
// MaxInflight set, at most that many chases run at once, the overflow
// queues up to QueueWait for a freed slot, and chases still waiting when
// the budget lapses are rejected with 429 (gate.go). Cache hits and
// request decoding stay admission-free.
//
// With Config.StateDir set the daemon also persists warm-start state:
// registered mappings and live sessions ride a manifest plus columnar
// solution snapshots (internal/snapshot), replayed by WarmStart at
// boot, so a restarted daemon serves its first /run from the snapshot
// cache with zero request-driven compiles. See state.go.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"mime"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	tdx "repro"
)

// Config parameterizes a Server. The zero value serves with the
// defaults noted per field.
type Config struct {
	// MaxMappings bounds the registry (LRU eviction beyond it).
	// <= 0 means DefaultCapacity.
	MaxMappings int
	// MaxTimeout caps — and, when a request names no ?timeout=, sets —
	// the per-request run budget. <= 0 means DefaultMaxTimeout.
	MaxTimeout time.Duration
	// MaxSessions bounds live incremental-exchange sessions (LRU
	// eviction beyond it). <= 0 means DefaultMaxSessions.
	MaxSessions int
	// MaxBodyBytes bounds request bodies. <= 0 means DefaultMaxBody.
	MaxBodyBytes int64
	// Compile replaces tdx.Compile — a test seam for counting or faking
	// compilations. nil means tdx.Compile.
	Compile CompileFunc
	// StateDir, when non-empty, enables warm-start persistence: the
	// manifest of registered mappings and live sessions, session
	// snapshots, and the disk run cache live under it (see state.go).
	// Empty means no persistence.
	StateDir string
	// MaxRunSnapshots bounds the disk run cache under StateDir/runs.
	// <= 0 means DefaultMaxRunSnapshots.
	MaxRunSnapshots int
	// MaxInflight bounds concurrent chases (runs and session deltas).
	// Arrivals beyond it queue up to QueueWait for a freed slot, then get
	// 429. <= 0 means unlimited (the gauges still report).
	MaxInflight int
	// QueueWait bounds how long an over-MaxInflight chase waits for a
	// slot before 429. <= 0 means DefaultQueueWait.
	QueueWait time.Duration
	// Logf receives operational messages (persistence failures, warm
	// start skips). nil means log.Printf.
	Logf func(format string, args ...any)
	// AccessLogf, when non-nil, receives one structured line per request
	// (method, path, status, response bytes, duration). nil disables
	// access logging; request counting happens regardless.
	AccessLogf func(format string, args ...any)
}

// DefaultMaxRunSnapshots bounds the disk run cache when the
// configuration does not.
const DefaultMaxRunSnapshots = 128

// DefaultMaxTimeout is the per-request run budget when the configuration
// does not set one.
const DefaultMaxTimeout = 60 * time.Second

// DefaultMaxBody bounds request bodies when the configuration does not.
const DefaultMaxBody int64 = 64 << 20

// Server implements the tdxd HTTP API over a compiled-exchange
// registry. Create with New, mount with Handler; safe for concurrent
// use.
type Server struct {
	cfg      Config
	reg      *Registry
	sessions *SessionStore
	sources  *sourceCache
	state    *stateStore // nil without Config.StateDir
	gate     *gate       // admission control on chase work
	logf     func(format string, args ...any)
	start    time.Time

	// onChase, when non-nil, runs on every admitted chase while its gate
	// slot is held, before the engine is entered — a test seam for
	// deterministic concurrency assertions (rendezvous, blocking).
	onChase func()

	// Persistence observability, surfaced on /healthz.
	warmStarts      atomic.Int64 // manifest entries replayed at boot
	snapshotLoads   atomic.Int64 // solution snapshots loaded (run-cache hits, session resumes)
	snapshotWrites  atomic.Int64 // solution snapshots written (runs, sessions)
	sourceCacheHits atomic.Int64 // decoded-source cache hits

	// Serving observability, surfaced on /metrics.
	requests  atomic.Int64 // HTTP requests served (all endpoints)
	errors5xx atomic.Int64 // responses with a 5xx status
}

// New builds a Server from the configuration. It fails only when
// Config.StateDir is set and unusable (not creatable, or holding a
// manifest this daemon cannot read).
func New(cfg Config) (*Server, error) {
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = DefaultMaxTimeout
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBody
	}
	if cfg.MaxRunSnapshots <= 0 {
		cfg.MaxRunSnapshots = DefaultMaxRunSnapshots
	}
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(cfg.MaxMappings, cfg.Compile),
		sessions: NewSessionStore(cfg.MaxSessions),
		sources:  newSourceCache(),
		gate:     newGate(cfg.MaxInflight, cfg.QueueWait),
		logf:     cfg.Logf,
		start:    time.Now(),
	}
	if s.logf == nil {
		s.logf = log.Printf
	}
	if cfg.StateDir != "" {
		state, err := newStateStore(cfg.StateDir, cfg.MaxRunSnapshots)
		if err != nil {
			return nil, err
		}
		s.state = state
		s.sessions.OnEvict(func(sess *Session) {
			if err := s.forgetSession(sess); err != nil {
				s.logf("state: drop evicted session %s: %v", sess.ID, err)
			}
		})
	}
	return s, nil
}

// WarmStart replays the persisted manifest: registered mappings
// recompile through the replay path (not counted as request-driven
// compiles) and live sessions resume from their solution snapshots. It
// is a no-op without a state directory. Replay is best-effort per
// entry — a mapping that no longer compiles or a snapshot that fails
// validation is logged and skipped, never fatal — so a damaged state
// directory degrades to a cold start, not a dead daemon.
func (s *Server) WarmStart() error {
	if s.state == nil {
		return nil
	}
	man := s.state.snapshot()
	for _, m := range man.Mappings {
		opts, err := m.Options.engineOptions()
		if err != nil {
			s.logf("state: mapping %.12s: bad options: %v", m.Hash, err)
			continue
		}
		entry, err := s.reg.RegisterReplay(context.TODO(), m.Mapping, opts...)
		if err != nil {
			s.logf("state: mapping %.12s no longer compiles: %v", m.Hash, err)
			continue
		}
		if entry.Hash != m.Hash {
			s.logf("state: mapping %.12s recompiled to %.12s; serving under the new hash", m.Hash, entry.Hash)
		}
		s.warmStarts.Add(1)
	}
	for _, ms := range man.Sessions {
		entry, ok := s.reg.Get(ms.Hash)
		if !ok {
			s.logf("state: session %s: mapping %.12s not replayed; dropping", ms.ID, ms.Hash)
			_ = s.state.forgetSession(ms.ID)
			continue
		}
		sol, err := entry.Exchange.LoadSolution(s.state.sessionPath(ms.ID))
		if err != nil {
			s.logf("state: session %s: %v; dropping", ms.ID, err)
			_ = s.state.forgetSession(ms.ID)
			continue
		}
		s.snapshotLoads.Add(1)
		s.sessions.AddWithID(ms.ID, entry, sol, ms.Deltas)
		s.warmStarts.Add(1)
	}
	return nil
}

// Registry exposes the compiled-exchange registry (tests, metrics).
func (s *Server) Registry() *Registry { return s.reg }

// Sessions exposes the session store (tests, metrics).
func (s *Server) Sessions() *SessionStore { return s.sessions }

// Handler returns the routed HTTP handler, wrapped with the request
// counter and (when configured) the access log.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("POST /v1/mappings", s.handleRegister)
	mux.HandleFunc("GET /v1/mappings", s.handleList)
	mux.HandleFunc("POST /v1/exchanges/{hash}/run", s.handleRun)
	mux.HandleFunc("POST /v1/exchanges/{hash}/answer", s.handleAnswer)
	mux.HandleFunc("POST /v1/exchanges/{hash}/snapshot", s.handleSnapshot)
	mux.HandleFunc("POST /v1/exchanges/{hash}/sessions", s.handleSessionCreate)
	mux.HandleFunc("POST /v1/sessions/{id}/facts", s.handleSessionFacts)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	return s.observe(mux)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthResponse{
		Status:            "ok",
		UptimeSeconds:     int64(time.Since(s.start).Seconds()),
		Mappings:          s.reg.Len(),
		Compiles:          s.reg.Compiles(),
		Evictions:         s.reg.Evicted(),
		Sessions:          s.sessions.Len(),
		SessionEvictions:  s.sessions.Evicted(),
		WarmStarts:        s.warmStarts.Load(),
		SnapshotLoads:     s.snapshotLoads.Load(),
		SnapshotWrites:    s.snapshotWrites.Load(),
		SourceCacheHits:   s.sourceCacheHits.Load(),
		Inflight:          s.gate.inflight.Load(),
		InflightHighWater: s.gate.highWater.Load(),
		Queued:            s.gate.queued.Load(),
		Rejected:          s.gate.rejected.Load(),
	})
}

// handleRegister compiles and registers a mapping. A JSON body is the
// registerRequest envelope; any other body is the raw mapping text with
// default options — so `curl --data-binary @mapping.tdx` just works.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	// Registration is budget-bounded like every other endpoint — the
	// body read included: the handler gives up (504) when the budget
	// lapses, while an in-flight compile finishes detached and is cached
	// for the retry.
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	s.boundBody(ctx, w, r)
	var req registerRequest
	if isJSON(r) {
		dec := newStrictDecoder(r.Body)
		if err := dec.Decode(&req); err != nil {
			writeError(w, bodyErrStatus(err), fmt.Errorf("register body: %w", err))
			return
		}
		// Reject trailing data (a concatenated second envelope would be
		// silently dropped otherwise), matching the source-body decoder.
		if tok, err := dec.Token(); err != io.EOF {
			writeError(w, http.StatusBadRequest, fmt.Errorf("register body: trailing data after envelope (%v)", tok))
			return
		}
	} else {
		text, err := io.ReadAll(r.Body)
		if err != nil {
			writeError(w, bodyErrStatus(err), fmt.Errorf("register body: %w", err))
			return
		}
		req.Mapping = string(text)
	}
	if strings.TrimSpace(req.Mapping) == "" {
		writeError(w, http.StatusBadRequest, errors.New("register body carries no mapping text"))
		return
	}
	opts, err := req.Options.engineOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	entry, cached, err := s.reg.Register(ctx, req.Mapping, opts...)
	if err != nil {
		// Compilation failures are the client's mapping (400); an
		// exhausted budget or client disconnect maps like any run error.
		writeError(w, answerStatus(err), err)
		return
	}
	if s.state != nil {
		// Persist the canonical rendering: cosmetic variants of one
		// mapping collapse to one manifest row, and replaying it
		// reproduces the same fingerprint.
		if err := s.state.rememberMapping(entry.Hash, entry.Exchange.Canonical(), req.Options, s.reg.Capacity()); err != nil {
			s.logf("state: persist mapping %.12s: %v", entry.Hash, err)
		}
	}
	status := http.StatusCreated
	if cached {
		status = http.StatusOK
	}
	writeJSON(w, status, registerResponse{Hash: entry.Hash, Cached: cached, Info: infoWire(entry.Info)})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	entries := s.reg.Entries()
	out := listResponse{Mappings: make([]mappingSummary, len(entries)), Capacity: s.reg.Capacity()}
	for i, e := range entries {
		out.Mappings[i] = mappingSummary{
			Hash:         e.Hash,
			Info:         infoWire(e.Info),
			RegisteredAt: e.Registered.UTC().Format(time.RFC3339),
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// resolve looks up the {hash} path segment in the registry, writing a
// 404 on a miss. A fingerprint names its exchange everywhere (the
// canonical mapping plus the output-affecting options), so a client that
// gets the 404 — the entry was evicted, or another daemon registered it
// — re-POSTs the mapping with the same envelope, gets the same hash back
// and retries.
func (s *Server) resolve(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	hash := r.PathValue("hash")
	entry, ok := s.reg.Get(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no exchange with hash %q is registered", hash))
	}
	return entry, ok
}

// budgetContext bounds the request context by the per-request run
// budget. The returned context covers the whole pipeline — decode, run,
// and any query evaluation or snapshot over the solution — so ?timeout=
// (and the MaxTimeout cap) bound everything a request can make the
// engine do, not just the chase.
func (s *Server) budgetContext(r *http.Request) (context.Context, context.CancelFunc, error) {
	budget, err := s.runBudget(r)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	return ctx, cancel, nil
}

// boundBody bounds the request body by the size cap and the budget: a
// connection read deadline (when the ResponseWriter supports it — test
// recorders don't, so it is best-effort) unblocks a stalled network
// read so a trickling client cannot hold the handler past its budget,
// and the ctx-checking wrapper classifies post-budget reads as the
// budget's deadline error rather than a bare i/o error.
func (s *Server) boundBody(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	if d, ok := ctx.Deadline(); ok {
		_ = http.NewResponseController(w).SetReadDeadline(d)
	}
	r.Body = ctxReadCloser{ctx: ctx, rc: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
}

// ctxReadCloser fails reads once ctx is done, passing inner errors
// (including *http.MaxBytesError) through untouched.
type ctxReadCloser struct {
	ctx context.Context
	rc  io.ReadCloser
}

func (c ctxReadCloser) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.rc.Read(p)
}

func (c ctxReadCloser) Close() error { return c.rc.Close() }

// runExchange is the shared run pipeline of the exchange endpoints:
// read the (bounded) body, consult the disk run cache keyed on
// (exchange, source content, effective options) when readCache is set,
// then — on a miss — decode the source (through the decoded-source
// cache) and chase it on the entry's compiled exchange, persisting the
// solution for next time. Session opens clear readCache: a solution
// loaded from a snapshot retains no chase state, so a session based on
// one would take the full re-chase on its first delta. Bodies are read
// fully before decoding: they are already bounded by MaxBodyBytes, and
// content hashing is what makes both caches sound.
func (s *Server) runExchange(ctx context.Context, w http.ResponseWriter, r *http.Request, entry *Entry, readCache bool) (*tdx.Solution, time.Duration, bool) {
	opts, err := s.runOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, 0, false
	}
	s.boundBody(ctx, w, r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("source body: %w", err))
		return nil, 0, false
	}
	jsonBody := isJSON(r)
	srcKey := sourceKey(jsonBody, body)
	started := time.Now()

	// Disk run cache: a deterministic run is fully keyed by the exchange
	// fingerprint, the source content, and the effective options, so a
	// snapshot hit replaces the whole decode+chase pipeline with an mmap.
	var cacheKey string
	if s.state != nil {
		cacheKey = runKey(entry.Hash, srcKey, entry.Exchange.RunFingerprint(opts...))
	}
	if s.state != nil && readCache {
		if sol, err := entry.Exchange.LoadSolution(s.state.runPath(cacheKey)); err == nil {
			s.snapshotLoads.Add(1)
			return sol, time.Since(started), true
		} else if !errors.Is(err, os.ErrNotExist) {
			s.logf("state: run cache %s: %v", cacheKey, err)
		}
	}

	src, err := s.decodeBody(entry, jsonBody, body, srcKey)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return nil, 0, false
	}
	// Admission: the gate wraps the chase itself — the cache hit above
	// and the decode stayed admission-free — so -max-inflight bounds the
	// CPU-and-memory burst of concurrent runs, queueing the overflow and
	// rejecting what outwaits -queue-wait with 429.
	if err := s.gate.acquire(ctx); err != nil {
		writeError(w, runStatus(err), err)
		return nil, 0, false
	}
	if s.onChase != nil {
		s.onChase()
	}
	sol, err := entry.Exchange.Run(ctx, src, opts...)
	s.gate.release()
	if err != nil {
		writeError(w, runStatus(err), err)
		return nil, 0, false
	}
	if s.state != nil {
		if err := s.state.saveRun(cacheKey, sol); err != nil {
			s.logf("state: persist run %s: %v", cacheKey, err)
		} else {
			s.snapshotWrites.Add(1)
		}
	}
	return sol, time.Since(started), true
}

// decodeBody turns a buffered request body into a frozen source
// instance, consulting the decoded-source cache first: re-posting the
// same document to the same exchange skips parsing and re-interning.
func (s *Server) decodeBody(entry *Entry, jsonBody bool, body []byte, srcKey string) (*tdx.Instance, error) {
	ck := entry.Hash + "\x00" + srcKey
	if src, ok := s.sources.get(ck); ok {
		s.sourceCacheHits.Add(1)
		return src, nil
	}
	src, err := parseSource(entry.Exchange, jsonBody, body)
	if err != nil {
		return nil, err
	}
	// Freeze before publishing: a frozen instance is safe to share
	// across the concurrent runs a cache hit implies.
	src.Freeze()
	s.sources.put(ck, src)
	return src, nil
}

// parseSource decodes a request body on ex: the TDX JSON instance format
// for JSON bodies, the TDX fact text format otherwise.
func parseSource(ex *tdx.Exchange, jsonBody bool, body []byte) (*tdx.Instance, error) {
	var src *tdx.Instance
	var err error
	if jsonBody {
		src, err = ex.DecodeSourceJSON(bytes.NewReader(body))
	} else {
		if len(bytes.TrimSpace(body)) == 0 {
			return nil, errors.New("source body is empty; send TDX fact text or the TDX JSON instance format")
		}
		src, err = ex.ParseSource(string(body))
	}
	if err != nil {
		return nil, fmt.Errorf("source body: %w", err)
	}
	return src, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	entry, ok := s.resolve(w, r)
	if !ok {
		return
	}
	// Resolve the query first: a bad query must not cost a chase.
	q := r.URL.Query().Get("query")
	if q != "" {
		if err := entry.Exchange.ValidateQuery(q); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	sol, elapsed, ok := s.runExchange(ctx, w, r, entry, true)
	if !ok {
		return
	}
	head := runResponse{
		Hash:      entry.Hash,
		Stats:     sol.Stats(),
		ElapsedMs: elapsedMs(elapsed),
	}
	tails := []tailDoc{{name: "solution", stream: instanceDoc(&sol.Instance)}}
	// ?query= also computes certain answers over the fresh solution, so
	// one request can carry both artifacts home. Evaluation happens here,
	// before the first response byte: a query failure must still become a
	// clean error status, which streaming would have forfeited.
	if q != "" {
		ans, err := entry.Exchange.Query(ctx, sol, q)
		if err != nil {
			writeError(w, answerStatus(err), err)
			return
		}
		tails = append(tails, tailDoc{name: "answers", stream: instanceDoc(ans)})
	}
	s.writeFramed(w, http.StatusOK, head, tails)
}

func (s *Server) handleAnswer(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	entry, ok := s.resolve(w, r)
	if !ok {
		return
	}
	// Resolve the query first: a bad query must not cost a chase ("" is
	// valid exactly when the mapping declares one query).
	q := r.URL.Query().Get("query")
	if err := entry.Exchange.ValidateQuery(q); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sol, elapsed, ok := s.runExchange(ctx, w, r, entry, true)
	if !ok {
		return
	}
	ans, err := entry.Exchange.Query(ctx, sol, q)
	if err != nil {
		writeError(w, answerStatus(err), err)
		return
	}
	head := answerResponse{
		Hash:      entry.Hash,
		Query:     q,
		Stats:     sol.Stats(),
		ElapsedMs: elapsedMs(elapsed),
	}
	tails := []tailDoc{{name: "answers", stream: instanceDoc(ans)}}
	s.writeFramed(w, http.StatusOK, head, tails)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	entry, ok := s.resolve(w, r)
	if !ok {
		return
	}
	atParam := r.URL.Query().Get("at")
	if atParam == "" {
		writeError(w, http.StatusBadRequest, errors.New("?at= time point is required"))
		return
	}
	at, err := tdx.ParseTime(atParam)
	if err != nil {
		writeError(w, http.StatusBadRequest, badParam("at", err))
		return
	}
	sol, elapsed, ok := s.runExchange(ctx, w, r, entry, true)
	if !ok {
		return
	}
	snap, err := entry.Exchange.Snapshot(ctx, sol, at)
	if err != nil {
		writeError(w, runStatus(err), err)
		return
	}
	head := snapshotResponse{
		Hash:      entry.Hash,
		At:        atParam,
		Stats:     sol.Stats(),
		ElapsedMs: elapsedMs(elapsed),
	}
	tails := []tailDoc{
		{name: "facts", stream: snapshotFactsDoc(snap)},
		{name: "rendering", stream: marshalDoc(snap.String())},
	}
	s.writeFramed(w, http.StatusOK, head, tails)
}

// handleSessionCreate materializes a frozen base solution from the body
// source and opens an incremental session over it: subsequent deltas
// posted to /v1/sessions/{id}/facts extend the solution via the
// semi-naive delta chase instead of re-chasing the base.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	entry, ok := s.resolve(w, r)
	if !ok {
		return
	}
	sol, elapsed, ok := s.runExchange(ctx, w, r, entry, false)
	if !ok {
		return
	}
	sess := s.sessions.Add(entry, sol)
	s.persistSession(sess, 0, sol)
	head := sessionResponse{
		SessionID: sess.ID,
		Hash:      entry.Hash,
		Stats:     sol.Stats(),
		ElapsedMs: elapsedMs(elapsed),
	}
	tails := []tailDoc{{name: "solution", stream: instanceDoc(&sol.Instance)}}
	s.writeFramed(w, http.StatusCreated, head, tails)
}

// handleSessionFacts ingests a delta of new source facts into a session:
// the body decodes like any source instance, runs through RunDelta
// against the session's current solution, and the response carries the
// solution diff (added and removed target facts). The session then
// holds the new solution, so deltas chain. ?solution=true additionally
// returns the full updated solution document.
func (s *Server) handleSessionFacts(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q is live (expired from the LRU bound, or never created)", r.PathValue("id")))
		return
	}
	wantSolution := false
	if v := r.URL.Query().Get("solution"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, badParam("solution", err))
			return
		}
		wantSolution = on
	}
	opts, err := s.runOptions(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer cancel()
	s.boundBody(ctx, w, r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("source body: %w", err))
		return
	}
	delta, err := parseSource(sess.Entry.Exchange, isJSON(r), body)
	if err != nil {
		writeError(w, bodyErrStatus(err), err)
		return
	}
	// Serialize deltas on this session: each delta's base is the
	// previous solution. The admission gate wraps the delta chase like a
	// full run's; acquiring it under the session lock is safe (the gate
	// is not a lock — release never blocks) and keeps queued deltas of
	// one session in arrival order.
	sess.mu.Lock()
	if err := s.gate.acquire(ctx); err != nil {
		sess.mu.Unlock()
		writeError(w, runStatus(err), err)
		return
	}
	if s.onChase != nil {
		s.onChase()
	}
	started := time.Now()
	next, diff, err := sess.Entry.Exchange.RunDelta(ctx, sess.sol, delta, opts...)
	s.gate.release()
	if err != nil {
		sess.mu.Unlock()
		writeError(w, runStatus(err), err)
		return
	}
	sess.sol = next
	sess.deltas++
	deltas := sess.deltas
	elapsed := time.Since(started)
	// Persisting under the session lock writes one session's deltas in
	// the order they were applied.
	s.persistSession(sess, deltas, next)
	sess.mu.Unlock()

	head := factsResponse{
		SessionID: sess.ID,
		Hash:      sess.Entry.Hash,
		Stats:     next.Stats(),
		ElapsedMs: elapsedMs(elapsed),
		Deltas:    deltas,
	}
	tails := []tailDoc{{name: "diff", stream: diffDoc(diff)}}
	if wantSolution {
		tails = append(tails, tailDoc{name: "solution", stream: instanceDoc(&next.Instance)})
	}
	s.writeFramed(w, http.StatusOK, head, tails)
}

// handleSessionDelete drops a session, releasing its pinned solution
// and retained chase state.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.sessions.Delete(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no session %q is live", id))
		return
	}
	if s.state != nil {
		if err := s.forgetSession(sess); err != nil {
			s.logf("state: drop session %s: %v", id, err)
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

// persistSession snapshots a session's current solution, best-effort,
// unless the session's persisted state was already dropped.
func (s *Server) persistSession(sess *Session, deltas int64, sol *tdx.Solution) {
	if s.state == nil {
		return
	}
	sess.persistMu.Lock()
	defer sess.persistMu.Unlock()
	if sess.gone {
		return
	}
	if err := s.state.saveSession(sess.ID, sess.Entry.Hash, deltas, sol); err != nil {
		s.logf("state: persist session %s: %v", sess.ID, err)
		return
	}
	s.snapshotWrites.Add(1)
}

// forgetSession drops a removed session's manifest row and snapshot
// file. It waits for a persist in progress, and once it returns
// persistSession writes nothing more for the session; it never waits
// for the session lock, so a delta in flight cannot hold it up.
func (s *Server) forgetSession(sess *Session) error {
	sess.persistMu.Lock()
	defer sess.persistMu.Unlock()
	sess.gone = true
	return s.state.forgetSession(sess.ID)
}

// answerStatus maps a query-evaluation error: a bad query is the
// client's, a context error maps like any run error.
func answerStatus(err error) int {
	if st := runStatus(err); st != http.StatusInternalServerError {
		return st
	}
	return http.StatusBadRequest
}

// runOptions translates per-request query parameters into per-run
// engine options layered over the exchange defaults.
func (s *Server) runOptions(r *http.Request) ([]tdx.Option, error) {
	q := r.URL.Query()
	var opts []tdx.Option
	if v := q.Get("norm"); v != "" {
		norm, err := tdx.ParseNorm(v)
		if err != nil {
			return nil, badParam("norm", err)
		}
		opts = append(opts, tdx.WithNorm(norm))
	}
	if v := q.Get("egd"); v != "" {
		egd, err := tdx.ParseEgdStrategy(v)
		if err != nil {
			return nil, badParam("egd", err)
		}
		opts = append(opts, tdx.WithEgdStrategy(egd))
	}
	if v := q.Get("coalesce"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return nil, badParam("coalesce", err)
		}
		opts = append(opts, tdx.WithCoalesce(on))
	}
	return opts, nil
}

// runBudget resolves the per-request run budget: ?timeout= when given
// (capped by MaxTimeout), MaxTimeout otherwise.
func (s *Server) runBudget(r *http.Request) (time.Duration, error) {
	v := r.URL.Query().Get("timeout")
	if v == "" {
		return s.cfg.MaxTimeout, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, badParam("timeout", err)
	}
	if d <= 0 {
		return 0, badParam("timeout", fmt.Errorf("must be positive, got %v", d))
	}
	if d > s.cfg.MaxTimeout {
		d = s.cfg.MaxTimeout
	}
	return d, nil
}

// isJSON reports whether the request declares a JSON body.
func isJSON(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	if ct == "" {
		return false
	}
	mt, _, err := mime.ParseMediaType(ct)
	if err != nil {
		return false
	}
	return mt == "application/json" || strings.HasSuffix(mt, "+json")
}
