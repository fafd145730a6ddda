package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/fleet"
)

// Fleet mode: with Config.FleetConfig set the server joins a tdxd
// fleet (internal/fleet). The node gossips one KindExchange fact per
// resident registry entry — the exchange fingerprint and the
// warm-start manifest row (canonical mapping text + compile options) as
// payload — so every node converges on what the fleet holds, and any
// node can reproduce any mapping. A request addressed to a fingerprint
// this node does not hold faults the exchange in: the node compiles the
// gossiped manifest row and serves the request as if the mapping had
// been registered here. The c-chase result depends only on the mapping
// and the source, so the answer is byte-identical to the registering
// node's, and it stays available after that node dies.
//
// Sessions stay node-local: a session id names state pinned on the
// node that created it, so /v1/sessions/* is served wherever the
// session lives (the client got that node's answer when it opened the
// session).

// fleetState bundles the server's fleet-mode machinery.
type fleetState struct {
	node *fleet.Node

	// opts remembers the compile options of each resident entry (keyed
	// by fingerprint) so gossiped manifest payloads reproduce the
	// exchange exactly. Options are recorded only once their entry is
	// live, and fleetFacts prunes them against a registry snapshot taken
	// under mu, so a prune drops only the options of evicted entries.
	mu   sync.Mutex
	opts map[string]requestOptions
}

// newFleet wires a fleet node to the server: the node's reported load
// is the admission gate's in-flight count, and its exchange facts
// mirror the registry.
func (s *Server) newFleet(cfg fleet.Config) error {
	if cfg.Load == nil {
		cfg.Load = func() int64 { return s.gate.inflight.Load() }
	}
	if cfg.Logf == nil {
		cfg.Logf = s.logf
	}
	// The state must exist before fleet.New: the node seeds its view by
	// calling the facts callback, which reads it.
	s.fleet = &fleetState{opts: make(map[string]requestOptions)}
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
// the gossiped manifest payload. Call it only once hash's entry is live
// in the registry.
func (s *Server) rememberOptions(hash string, opts requestOptions) {
	if s.fleet != nil {
		s.fleet.mu.Lock()
		s.fleet.opts[hash] = opts
		s.fleet.mu.Unlock()
	}
}

// fleetFacts is the fleet node's local-facts callback: one KindExchange
// fact per resident registry entry, carrying the manifest row that
// reproduces it.
func (s *Server) fleetFacts(now time.Time) []fleet.Fact {
	s.fleet.mu.Lock()
	defer s.fleet.mu.Unlock()
	entries := s.reg.Entries()
	live := make(map[string]bool, len(entries))
	facts := make([]fleet.Fact, 0, len(entries))
	for _, e := range entries {
		live[e.Hash] = true
		opts, ok := s.fleet.opts[e.Hash]
		if !ok {
			// The call that registered the entry has not recorded its
			// options yet (or gave up waiting for the compile). Skip it:
			// a payload with the default options would compile to
			// another fingerprint.
			continue
		}
		payload, err := json.Marshal(manifestMapping{Hash: e.Hash, Mapping: e.Exchange.Canonical(), Options: opts})
		if err != nil {
			continue
		}
		facts = append(facts, fleet.Fact{Kind: fleet.KindExchange, Hash: e.Hash, Payload: payload})
	}
	// An evicted entry must stop being advertised and remembered.
	for hash := range s.fleet.opts {
		if !live[hash] {
			delete(s.fleet.opts, hash)
		}
	}
	return facts
}

// faultIn compiles hash's mapping from a gossiped manifest payload and
// registers it here — how a node answers a fingerprint it does not
// hold. The compile goes through the registry's replay path: it stays
// out of the request-driven Compiles counter, and a burst of requests
// for one hash shares one compile, which alone records the options,
// bumps FleetCompiles, persists the manifest row and spreads the news.
// ctx bounds this caller's wait, not the compile. faultIn returns nil
// when the fleet holds no payload that reproduces hash, and an error
// wrapping ctx's when ctx ends the wait.
func (s *Server) faultIn(ctx context.Context, hash string) (*Entry, error) {
	payload, ok := s.fleet.node.ManifestPayload(hash)
	if !ok {
		return nil, nil
	}
	var row manifestMapping
	if err := json.Unmarshal(payload, &row); err != nil {
		s.logf("fleet: manifest payload for %.12s: %v", hash, err)
		return nil, nil
	}
	opts, err := row.Options.engineOptions()
	if err != nil {
		s.logf("fleet: manifest payload for %.12s: bad options: %v", hash, err)
		return nil, nil
	}
	entry, err := s.reg.RegisterReplay(ctx, row.Mapping, func(e *Entry) {
		if e.Hash != hash {
			return
		}
		// The entry is live: record its options before any waiter
		// returns, so the next gossip round advertises them.
		s.rememberOptions(e.Hash, row.Options)
		s.fleetCompiles.Add(1)
		if s.state != nil {
			if err := s.state.rememberMapping(e.Hash, e.Exchange.Canonical(), row.Options, s.reg.Capacity()); err != nil {
				s.logf("state: persist fleet mapping %.12s: %v", e.Hash, err)
			}
		}
		// Spread the news: this node now holds the exchange.
		s.fleet.node.Poke()
	}, opts...)
	if err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		s.logf("fleet: fault-in %.12s: %v", hash, err)
		return nil, nil
	}
	if entry.Hash != hash {
		s.logf("fleet: manifest payload for %.12s compiled to %.12s; not serving it", hash, entry.Hash)
		return nil, nil
	}
	return entry, nil
}

// fleetHealth is the /healthz fleet block.
type fleetHealth struct {
	NodeID         string       `json:"nodeId"`
	Peers          int          `json:"peers"`
	Members        []memberWire `json:"members"`
	FleetCompiles  int64        `json:"fleetCompiles"`
	GossipSent     int64        `json:"gossipSent"`
	GossipReceived int64        `json:"gossipReceived"`
	FactsExpired   int64        `json:"factsExpired"`
}

// memberWire is one live fleet member on /healthz.
type memberWire struct {
	ID     string `json:"id"`
	Gossip string `json:"gossip"`
	Load   int64  `json:"load"`
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
		wire[i] = memberWire{ID: m.ID, Gossip: m.Gossip, Load: m.Load}
	}
	return &fleetHealth{
		NodeID:         n.ID(),
		Peers:          n.Peers(),
		Members:        wire,
		FleetCompiles:  s.fleetCompiles.Load(),
		GossipSent:     n.GossipSent(),
		GossipReceived: n.GossipReceived(),
		FactsExpired:   n.FactsExpired(),
	}
}
