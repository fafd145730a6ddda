package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	tdx "repro"
	"repro/internal/chase"
)

// The wire types of the tdxd HTTP API. Field names are lowerCamel and
// stable: they are a compatibility surface, like chase.Stats's JSON
// form. Responses are written compact (one line), so shell pipelines can
// grep and sed them; the embedded solution document keeps the jsonio
// rendering.

// registerRequest is the JSON body of POST /v1/mappings. A non-JSON
// body is treated as the raw mapping text with default options instead.
type registerRequest struct {
	// Mapping is the TDX mapping text.
	Mapping string `json:"mapping"`
	// Options are the compile-time defaults baked into the registered
	// exchange.
	Options requestOptions `json:"options"`
}

// requestOptions maps request-level option names onto the engine's
// functional options. All fields are optional; zero values mean the
// engine defaults.
type requestOptions struct {
	Norm     string `json:"norm,omitempty"`     // "smart" | "naive"
	Egd      string `json:"egd,omitempty"`      // "batch" | "stepwise"
	Coalesce bool   `json:"coalesce,omitempty"` // coalesce solutions
}

// engineOptions translates the named options, rejecting unknown names.
// No option bounds memory: every run interns into an overlay on its
// source's frozen interner, so neither a registry entry nor a cached
// source grows with the runs it serves.
func (o requestOptions) engineOptions() ([]tdx.Option, error) {
	norm, err := tdx.ParseNorm(o.Norm)
	if err != nil {
		return nil, err
	}
	egd, err := tdx.ParseEgdStrategy(o.Egd)
	if err != nil {
		return nil, err
	}
	return []tdx.Option{tdx.WithNorm(norm), tdx.WithEgdStrategy(egd), tdx.WithCoalesce(o.Coalesce)}, nil
}

// infoJSON is the wire form of tdx.Info.
type infoJSON struct {
	SourceRelations int  `json:"sourceRelations"`
	TargetRelations int  `json:"targetRelations"`
	TGDs            int  `json:"tgds"`
	EGDs            int  `json:"egds"`
	Queries         int  `json:"queries"`
	Temporal        bool `json:"temporal"`
}

func infoWire(i tdx.Info) infoJSON {
	return infoJSON{
		SourceRelations: i.SourceRelations,
		TargetRelations: i.TargetRelations,
		TGDs:            i.TGDs,
		EGDs:            i.EGDs,
		Queries:         i.Queries,
		Temporal:        i.Temporal,
	}
}

// registerResponse answers POST /v1/mappings.
type registerResponse struct {
	Hash   string   `json:"hash"`
	Cached bool     `json:"cached"` // an already-registered entry served the call
	Info   infoJSON `json:"info"`
}

// mappingSummary is one row of GET /v1/mappings.
type mappingSummary struct {
	Hash         string   `json:"hash"`
	Info         infoJSON `json:"info"`
	RegisteredAt string   `json:"registeredAt"` // RFC 3339
}

// listResponse answers GET /v1/mappings, most recently used first.
type listResponse struct {
	Mappings []mappingSummary `json:"mappings"`
	Capacity int              `json:"capacity"`
}

// runResponse is the head of POST /v1/exchanges/{hash}/run: the small
// fields, marshaled whole; the solution document — byte-identical (after
// JSON whitespace normalization) to tdx.Solution.JSON on a direct run —
// and the optional ?query= answers document follow as framed tail
// fields, streamed straight off the frozen columnar stores (see
// stream.go). Stats is the run's chase.Stats in its canonical encoding.
type runResponse struct {
	Hash      string      `json:"hash"`
	Stats     chase.Stats `json:"stats"`
	ElapsedMs float64     `json:"elapsedMs"`
}

// answerResponse is the head of POST /v1/exchanges/{hash}/answer: the
// certain answers of the query follow as a framed tail field, plus the
// stats of the run that produced the intermediate solution.
type answerResponse struct {
	Hash      string      `json:"hash"`
	Query     string      `json:"query"`
	Stats     chase.Stats `json:"stats"`
	ElapsedMs float64     `json:"elapsedMs"`
}

// snapshotFact is one fact of an abstract snapshot: atemporal, over
// constants and per-snapshot labeled nulls.
type snapshotFact struct {
	Rel  string   `json:"rel"`
	Args []string `json:"args"`
}

// snapshotResponse is the head of POST /v1/exchanges/{hash}/snapshot:
// the abstract snapshot db_at of the solution follows as framed tail
// fields — the facts array in deterministic order, then the paper's
// {f1, f2, ...} rendering.
type snapshotResponse struct {
	Hash      string      `json:"hash"`
	At        string      `json:"at"`
	Stats     chase.Stats `json:"stats"`
	ElapsedMs float64     `json:"elapsedMs"`
}

// sessionResponse is the head of POST /v1/exchanges/{hash}/sessions: the
// id of the freshly opened incremental session; its base solution — the
// same document /run would return for the same body — follows as a
// framed tail field.
type sessionResponse struct {
	SessionID string      `json:"sessionId"`
	Hash      string      `json:"hash"`
	Stats     chase.Stats `json:"stats"`
	ElapsedMs float64     `json:"elapsedMs"`
}

// factsResponse is the head of POST /v1/sessions/{id}/facts: the stats
// of the delta run (deltaFacts/deltaFires/fallbackFullChase report what
// the incremental chase did). The solution diff against the session's
// previous solution follows as a framed "diff" tail — fact counts first,
// then the added and removed TDX JSON instance documents, so clients
// (and smoke tests) can check emptiness without parsing the documents —
// and ?solution=true appends the full updated document as a "solution"
// tail.
type factsResponse struct {
	SessionID string      `json:"sessionId"`
	Hash      string      `json:"hash"`
	Stats     chase.Stats `json:"stats"`
	ElapsedMs float64     `json:"elapsedMs"`
	Deltas    int64       `json:"deltas"`
}

// healthResponse answers GET /healthz. Compiles counts request-driven
// compilations only; warm-start replays register mappings without
// touching it, so compiles == 0 after a warm boot is the signal that
// clients paid nothing for the restart. WarmStarts counts manifest
// entries (mappings + sessions) replayed at boot; SnapshotLoads and
// SnapshotWrites count solution snapshots read (run-cache hits, session
// resumes) and written (runs, sessions); SourceCacheHits counts decoded
// request bodies served from the in-memory source cache.
//
// The admission-control gauges mirror /metrics: Inflight and Queued are
// the chases currently running and currently waiting for a -max-inflight
// slot, InflightHighWater the maximum concurrency ever observed, and
// Rejected the running count of chases answered 429 because the
// -queue-wait budget lapsed.
type healthResponse struct {
	Status            string `json:"status"`
	UptimeSeconds     int64  `json:"uptimeSeconds"`
	Mappings          int    `json:"mappings"`
	Compiles          int64  `json:"compiles"`
	Evictions         int64  `json:"evictions"`
	Sessions          int    `json:"sessions"`
	SessionEvictions  int64  `json:"sessionEvictions"`
	WarmStarts        int64  `json:"warmStarts"`
	SnapshotLoads     int64  `json:"snapshotLoads"`
	SnapshotWrites    int64  `json:"snapshotWrites"`
	SourceCacheHits   int64  `json:"sourceCacheHits"`
	Inflight          int64  `json:"inflight"`
	InflightHighWater int64  `json:"inflightHighWater"`
	Queued            int64  `json:"queued"`
	Rejected          int64  `json:"rejected"`
}

// errorResponse is the body of every non-2xx response.
type errorResponse struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// statusClientClosedRequest is the de-facto standard (nginx) status for
// "the client canceled before the response": no RFC number exists for
// it, and 504 would wrongly blame the server's budget.
const statusClientClosedRequest = 499

// runStatus maps an engine error to its HTTP status: an admission-gate
// rejection asks the client to retry later (429), an exhausted
// per-request budget is a gateway timeout, a client disconnect is the
// client's cancellation, a chase failure (no solution / no witness) is a
// semantically invalid input rather than a server fault, and anything
// else is a 500.
func runStatus(err error) int {
	switch {
	case errors.Is(err, errTooBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, tdx.ErrNoSolution), errors.Is(err, tdx.ErrNoWitness):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON writes one compact JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encode appends a newline — exactly one document per line. A write
	// error here means the client went away mid-response; the status
	// line is gone, so there is nothing left to report to them.
	_ = json.NewEncoder(w).Encode(body)
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error(), Status: status})
}

// elapsedMs converts a duration to the wire's float milliseconds.
func elapsedMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// bodyErrStatus maps a request-body read/decode failure: a body over
// the MaxBodyBytes bound is 413 (the client must shrink it), a read
// that outlived the request budget is 504 (the connection read
// deadline and the ctx wrapper both surface deadline errors), a client
// disconnect is 499, and anything else is the client's malformed
// content, 400.
func bodyErrStatus(err error) int {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	default:
		return http.StatusBadRequest
	}
}

// badParam builds the 400 error for an unparsable query parameter.
func badParam(name string, err error) error {
	return fmt.Errorf("query parameter %s: %w", name, err)
}

// newStrictDecoder decodes a JSON request envelope, rejecting unknown
// fields so a typoed option name fails loudly instead of silently
// meaning the default.
func newStrictDecoder(r io.Reader) *json.Decoder {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec
}
