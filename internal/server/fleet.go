package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Fleet mode: with Config.FleetConfig set the server joins a tdxd
// fleet (internal/fleet). The node gossips one KindExchange fact per
// resident registry entry — the exchange fingerprint, its
// registered-at stamp, and the warm-start manifest row (canonical
// mapping text + compile options) as payload — so every node converges
// on who holds what, and any node can reproduce any mapping. Requests
// addressed to a fingerprint this node does not hold are routed over
// the converged view:
//
//  1. serve locally when the registry has the hash (owners stay hot,
//     and a node that compiled a fallback copy keeps serving it);
//  2. otherwise forward to the fleet's candidates for the hash — ring
//     owners first — with the remaining deadline budget propagated and
//     a hop guard so a forwarded request is never forwarded again;
//  3. when every candidate is unreachable (or this request already
//     rode one hop), fall back to compiling locally from the gossiped
//     manifest payload and serve as if the mapping had been registered
//     here.
//
// Sessions stay node-local: a session id names state pinned on the
// node that created it, so /v1/sessions/* is served wherever the
// session lives (the client got that node's answer when it opened the
// session).

// forwardedHeader marks a request that already rode one fleet hop; a
// receiving node serves or falls back, never re-forwards. The value is
// the origin node's ID (observability; loop prevention only needs
// presence).
const forwardedHeader = "X-Tdxd-Forwarded"

// fleetState bundles the server's fleet-mode machinery.
type fleetState struct {
	node   *fleet.Node
	client *http.Client

	// optsByHash remembers the compile options of each resident entry
	// (keyed by fingerprint) so gossiped manifest payloads reproduce the
	// exchange exactly. Pruned to the registry's live hashes on every
	// facts refresh.
	optsByHash sync.Map // string → requestOptions
}

// newFleet wires a fleet node to the server: the node's load hint is
// the admission gate's in-flight count, and its exchange facts mirror
// the registry.
func (s *Server) newFleet(cfg fleet.Config) error {
	if cfg.Load == nil {
		cfg.Load = func() int64 { return s.gate.inflight.Load() }
	}
	if cfg.Logf == nil {
		cfg.Logf = s.logf
	}
	// The state must exist before fleet.New: the node seeds its view by
	// calling the facts callback, which reads it.
	s.fleet = &fleetState{
		client: &http.Client{
			// Per-request deadlines ride the forwarded context; the
			// transport just needs pooling.
			Transport: &http.Transport{MaxIdleConnsPerHost: 16},
		},
	}
	node, err := fleet.New(cfg, s.fleetFacts)
	if err != nil {
		s.fleet = nil
		return err
	}
	s.fleet.node = node
	return nil
}

// Fleet returns the fleet node (nil outside fleet mode). The caller —
// cmd/tdxd, tests — owns Start; Close rides Server.Close.
func (s *Server) Fleet() *fleet.Node {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.node
}

// rememberOptions records the compile options behind a fingerprint for
// the gossiped manifest payload.
func (s *Server) rememberOptions(hash string, opts requestOptions) {
	if s.fleet != nil {
		s.fleet.optsByHash.Store(hash, opts)
	}
}

// fleetFacts is the fleet node's local-facts callback: one KindExchange
// fact per resident registry entry, stamped with its registration time
// and carrying the manifest row that reproduces it.
func (s *Server) fleetFacts(now time.Time) []fleet.Fact {
	entries := s.reg.Entries()
	live := make(map[string]bool, len(entries))
	facts := make([]fleet.Fact, 0, len(entries))
	for _, e := range entries {
		live[e.Hash] = true
		var opts requestOptions
		if v, ok := s.fleet.optsByHash.Load(e.Hash); ok {
			opts = v.(requestOptions)
		}
		payload, err := json.Marshal(manifestMapping{Hash: e.Hash, Mapping: e.Exchange.Canonical(), Options: opts})
		if err != nil {
			continue
		}
		facts = append(facts, fleet.Fact{
			Kind:       fleet.KindExchange,
			Hash:       e.Hash,
			Registered: e.Registered.UnixNano(),
			Payload:    payload,
		})
	}
	// An evicted entry must stop being advertised and remembered.
	s.fleet.optsByHash.Range(func(k, _ any) bool {
		if !live[k.(string)] {
			s.fleet.optsByHash.Delete(k)
		}
		return true
	})
	return facts
}

// resolveOrForward resolves the {hash} path segment like resolve, but
// in fleet mode a miss consults the fleet: the request is forwarded to
// a candidate node (response already written; nil, false), or the
// mapping is compiled locally from the gossiped manifest and the
// returned entry serves the request here.
func (s *Server) resolveOrForward(w http.ResponseWriter, r *http.Request) (*Entry, bool) {
	hash := r.PathValue("hash")
	if entry, ok := s.reg.Get(hash); ok {
		return entry, true
	}
	if s.fleet == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no exchange with hash %q is registered", hash))
		return nil, false
	}
	// One hop only: a forwarded request that still misses serves via
	// fallback or fails, never bounces around the ring.
	if r.Header.Get(forwardedHeader) == "" {
		if handled := s.forwardExchange(w, r, hash); handled {
			return nil, false
		}
	}
	if entry, ok := s.fleetFallbackCompile(hash); ok {
		return entry, true
	}
	writeError(w, http.StatusNotFound, fmt.Errorf("no exchange with hash %q is registered anywhere in the fleet", hash))
	return nil, false
}

// forwardExchange proxies an exchange request to the fleet's candidate
// nodes for hash, most-preferred (ring owners) first. It reports
// whether a response was written; transport failures fall through to
// the next candidate and finally to the caller's fallback. A 404 from
// a candidate also falls through: its view may lag ours (it evicted,
// or never faulted the exchange in), and another candidate — or the
// local fallback — can still serve.
func (s *Server) forwardExchange(w http.ResponseWriter, r *http.Request, hash string) bool {
	candidates := s.fleet.node.Route(hash)
	if len(candidates) == 0 {
		return false
	}
	ctx, cancel, err := s.budgetContext(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return true
	}
	defer cancel()
	// The body must be buffered: a transport failure after the first
	// candidate consumed part of it would otherwise kill the retry. The
	// read is budget-bounded like every other body read, so a trickling
	// client cannot hold the handler past its deadline.
	s.boundBody(ctx, w, r)
	body, err := io.ReadAll(r.Body)
	if err != nil {
		writeError(w, bodyErrStatus(err), fmt.Errorf("source body: %w", err))
		return true
	}
	// If every candidate falls through, the caller serves this request
	// locally (fallback compile) — it must find the body it sent, not a
	// drained reader.
	r.Body = io.NopCloser(bytes.NewReader(body))
	deadline, _ := ctx.Deadline()
	for _, m := range candidates {
		// Propagate the remaining deadline budget: the downstream node
		// must give up before we do, so the client gets its 504 from one
		// place with the whole pipeline bounded.
		remaining := time.Until(deadline)
		if remaining <= 0 {
			writeError(w, http.StatusGatewayTimeout, context.DeadlineExceeded)
			return true
		}
		q := r.URL.Query()
		q.Set("timeout", remaining.Round(time.Millisecond).String())
		url := "http://" + m.Addr + r.URL.Path + "?" + q.Encode()
		req, err := http.NewRequestWithContext(ctx, r.Method, url, bytes.NewReader(body))
		if err != nil {
			continue
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			req.Header.Set("Content-Type", ct)
		}
		req.Header.Set(forwardedHeader, s.fleet.node.ID())
		resp, err := s.fleet.client.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				writeError(w, runStatus(ctx.Err()), fmt.Errorf("fleet forward to %s: %w", m.ID, ctx.Err()))
				return true
			}
			s.logf("fleet: forward %s to %s (%s): %v", hash[:min(12, len(hash))], m.ID, m.Addr, err)
			continue
		}
		if resp.StatusCode == http.StatusNotFound {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		s.forwards.Add(1)
		copyHeader(w.Header(), resp.Header)
		w.WriteHeader(resp.StatusCode)
		if _, err := io.Copy(w, resp.Body); err != nil {
			s.logf("fleet: relay from %s truncated: %v", m.ID, err)
		}
		resp.Body.Close()
		return true
	}
	return false
}

// fleetFallbackCompile compiles hash's mapping from the gossiped
// manifest payload — the last resort when no candidate answered, and
// the fault-in path on a node that received a forwarded request for an
// exchange it does not hold yet. The replay path keeps the compile out
// of the request-driven Compiles counter; FleetCompiles counts it
// instead.
func (s *Server) fleetFallbackCompile(hash string) (*Entry, bool) {
	payload, ok := s.fleet.node.ManifestPayload(hash)
	if !ok {
		return nil, false
	}
	var row manifestMapping
	if err := json.Unmarshal(payload, &row); err != nil {
		s.logf("fleet: manifest payload for %.12s: %v", hash, err)
		return nil, false
	}
	opts, err := row.Options.engineOptions()
	if err != nil {
		s.logf("fleet: manifest payload for %.12s: bad options: %v", hash, err)
		return nil, false
	}
	entry, err := s.reg.RegisterReplay(row.Mapping, opts...)
	if err != nil {
		s.logf("fleet: mapping %.12s does not compile here: %v", hash, err)
		return nil, false
	}
	if entry.Hash != hash {
		s.logf("fleet: manifest payload for %.12s compiled to %.12s; not serving it", hash, entry.Hash)
		return nil, false
	}
	s.rememberOptions(entry.Hash, row.Options)
	s.fleetCompiles.Add(1)
	if s.state != nil {
		if err := s.state.rememberMapping(entry.Hash, entry.Exchange.Canonical(), row.Options, s.reg.Capacity()); err != nil {
			s.logf("state: persist fleet mapping %.12s: %v", entry.Hash, err)
		}
	}
	// Spread the news: this node now holds the exchange.
	s.fleet.node.Poke()
	return entry, true
}

// copyHeader relays a forwarded response's headers, dropping the
// hop-by-hop ones the relay re-derives.
func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		switch strings.ToLower(k) {
		case "connection", "transfer-encoding", "keep-alive":
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// fleetHealth is the /healthz fleet block.
type fleetHealth struct {
	NodeID         string       `json:"nodeId"`
	Peers          int          `json:"peers"`
	Members        []memberWire `json:"members"`
	Forwards       int64        `json:"forwards"`
	FleetCompiles  int64        `json:"fleetCompiles"`
	GossipSent     int64        `json:"gossipSent"`
	GossipReceived int64        `json:"gossipReceived"`
	FactsExpired   int64        `json:"factsExpired"`
}

// memberWire is one live fleet member on /healthz.
type memberWire struct {
	ID   string `json:"id"`
	Addr string `json:"addr"`
	Load int64  `json:"load"`
}

// fleetHealthBlock builds the /healthz fleet block (nil outside fleet
// mode, so single-node daemons keep their exact healthz shape).
func (s *Server) fleetHealthBlock() *fleetHealth {
	if s.fleet == nil {
		return nil
	}
	n := s.fleet.node
	members := n.Members()
	wire := make([]memberWire, len(members))
	for i, m := range members {
		wire[i] = memberWire{ID: m.ID, Addr: m.Addr, Load: m.Load}
	}
	return &fleetHealth{
		NodeID:         n.ID(),
		Peers:          n.Peers(),
		Members:        wire,
		Forwards:       s.forwards.Load(),
		FleetCompiles:  s.fleetCompiles.Load(),
		GossipSent:     n.GossipSent(),
		GossipReceived: n.GossipReceived(),
		FactsExpired:   n.FactsExpired(),
	}
}
