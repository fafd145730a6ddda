package fleet

import (
	"errors"
	"fmt"
	"log"
	"math/rand/v2"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config parameterizes a fleet node. ID is required; everything else
// has a serviceable default.
type Config struct {
	// ID is this node's stable identity — the label its facts carry.
	// tdxd persists one under -state so a restarted node is recognized
	// as the same member.
	ID string
	// BindUDP is the local gossip listen address ("127.0.0.1:0" when
	// empty — loopback, kernel-chosen port).
	BindUDP string
	// Peers seeds the gossip mesh with known peer UDP addresses; gossip
	// discovers everyone transitively from there.
	Peers []string
	// Interval is the gossip period (DefaultInterval when <= 0).
	Interval time.Duration
	// TTL is how long peers may trust this node's facts without a
	// refresh (DefaultTTLIntervals * Interval when <= 0). It must
	// comfortably exceed Interval or knowledge flaps.
	TTL time.Duration
	// Fanout is how many peers each round pushes to (DefaultFanout when
	// <= 0).
	Fanout int
	// Secret, when non-empty, HMAC-signs every packet; peers with a
	// different secret (or none) are ignored.
	Secret string
	// Load reports this node's current load (in-flight chases) for the
	// node fact. nil means 0.
	Load func() int64
	// Logf receives operational messages. nil means log.Printf.
	Logf func(format string, args ...any)
}

// DefaultInterval is the gossip period when the configuration is
// silent.
const DefaultInterval = time.Second

// DefaultTTLIntervals sets the default fact TTL as a multiple of the
// gossip interval: a fact survives this many missed refreshes before a
// peer forgets it.
const DefaultTTLIntervals = 5

// DefaultFanout is the per-round push fan-out.
const DefaultFanout = 3

// Member is one live fleet node as the membership view knows it.
type Member struct {
	ID     string
	Gossip string // UDP address for gossip
	Load   int64
}

// Node is one gossiping fleet member: it periodically pushes its full
// fact view to a few random peers, accumulates what it hears, expires
// the stale, and answers membership and manifest lookups over the
// converged view. Create with New, run with Start, stop with Close.
type Node struct {
	cfg   Config
	acc   *Accumulator
	conn  *net.UDPConn
	local func(now time.Time) []Fact
	logf  func(format string, args ...any)

	poke chan struct{}
	done chan struct{}
	wg   sync.WaitGroup

	// lastStamp is the last self-fact stamp minted, kept strictly
	// increasing by refreshLocal. Touched only from New and the gossip
	// loop.
	lastStamp int64

	closeOnce sync.Once

	sent       atomic.Int64 // datagrams pushed to peers
	received   atomic.Int64 // datagrams accepted (decoded + merged)
	badPackets atomic.Int64 // datagrams dropped (bad signature, malformed)
}

// New binds the gossip socket and builds a node. local supplies the
// node's own KindExchange facts each round — what this node holds, as
// (fingerprint, manifest payload) — with origin fields (Node, Gossip,
// TTL) filled in by the node; nil means none. The node does not gossip
// until Start.
func New(cfg Config, local func(now time.Time) []Fact) (*Node, error) {
	if cfg.ID == "" {
		return nil, errors.New("fleet: Config.ID is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.TTL <= 0 {
		cfg.TTL = DefaultTTLIntervals * cfg.Interval
	}
	if cfg.Fanout <= 0 {
		cfg.Fanout = DefaultFanout
	}
	bind := cfg.BindUDP
	if bind == "" {
		bind = "127.0.0.1:0"
	}
	addr, err := net.ResolveUDPAddr("udp", bind)
	if err != nil {
		return nil, fmt.Errorf("fleet: bind %s: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("fleet: bind %s: %w", bind, err)
	}
	n := &Node{
		cfg:   cfg,
		acc:   NewAccumulator(),
		conn:  conn,
		local: local,
		logf:  cfg.Logf,
		poke:  make(chan struct{}, 1),
		done:  make(chan struct{}),
	}
	if n.logf == nil {
		n.logf = log.Printf
	}
	// Seed the view with ourselves so membership is complete before the
	// first round.
	n.refreshLocal(time.Now())
	return n, nil
}

// ID returns the node's identity.
func (n *Node) ID() string { return n.cfg.ID }

// GossipAddr returns the bound UDP address — what other nodes put in
// their -peers list.
func (n *Node) GossipAddr() string { return n.conn.LocalAddr().String() }

// Accumulator exposes the fact view (tests, metrics).
func (n *Node) Accumulator() *Accumulator { return n.acc }

// Start launches the receive and gossip loops, pushing a first round
// immediately.
func (n *Node) Start() {
	n.wg.Add(2)
	go n.receiveLoop()
	go n.gossipLoop()
}

// Close stops the loops and the socket. Safe to call more than once.
func (n *Node) Close() error {
	var err error
	n.closeOnce.Do(func() {
		close(n.done)
		err = n.conn.Close()
		n.wg.Wait()
	})
	return err
}

// Poke requests an immediate gossip round (a registration just
// happened; spread it now rather than an interval later).
func (n *Node) Poke() {
	select {
	case n.poke <- struct{}{}:
	default:
	}
}

// GossipSent returns the datagrams pushed to peers.
func (n *Node) GossipSent() int64 { return n.sent.Load() }

// GossipReceived returns the datagrams accepted and merged.
func (n *Node) GossipReceived() int64 { return n.received.Load() }

// BadPackets returns the datagrams dropped before merging.
func (n *Node) BadPackets() int64 { return n.badPackets.Load() }

// FactsExpired returns the facts dropped by TTL expiry.
func (n *Node) FactsExpired() int64 { return n.acc.Expired() }

// refreshLocal re-asserts everything this node originates: its own
// membership fact plus the caller-supplied exchange facts. Every fact
// gets a freshly minted, strictly increasing Stamp — the only thing
// that refreshes a peer's TTL, so fleet-wide liveness of this node's
// knowledge hinges on these rounds happening. Stale self knowledge (an
// exchange the registry evicted) is withdrawn immediately by dropping
// and re-observing; peers forget it one TTL later.
func (n *Node) refreshLocal(now time.Time) {
	var load int64
	if n.cfg.Load != nil {
		load = n.cfg.Load()
	}
	facts := []Fact{{
		Kind:    KindNode,
		Load:    load,
		Payload: nil,
	}}
	if n.local != nil {
		facts = append(facts, n.local(now)...)
	}
	// Monotonic even under a stepped wall clock or sub-nanosecond
	// rounds: a stamp that failed to advance would stop refreshing
	// peers.
	stamp := now.UnixNano()
	if stamp <= n.lastStamp {
		stamp = n.lastStamp + 1
	}
	n.lastStamp = stamp
	n.acc.Drop(n.cfg.ID)
	for _, f := range facts {
		f.Node = n.cfg.ID
		f.Gossip = n.GossipAddr()
		f.Stamp = stamp
		if f.TTL <= 0 {
			f.TTL = n.cfg.TTL
		}
		n.acc.Observe(f, now)
	}
}

// gossipLoop runs one round per interval (or poke): refresh local
// facts, expire the stale, and push the full view to a few peers.
func (n *Node) gossipLoop() {
	defer n.wg.Done()
	ticker := time.NewTicker(n.cfg.Interval)
	defer ticker.Stop()
	n.round(time.Now())
	for {
		select {
		case <-n.done:
			return
		case <-ticker.C:
		case <-n.poke:
		}
		n.round(time.Now())
	}
}

// round performs one gossip round.
func (n *Node) round(now time.Time) {
	n.refreshLocal(now)
	n.acc.Expire(now)
	targets := n.targets(now)
	if len(targets) == 0 {
		return
	}
	packets, skipped := EncodePackets(n.acc.Facts(now), n.cfg.Secret)
	for _, f := range skipped {
		n.logf("fleet: fact %s/%s exceeds the datagram bound; not gossiped", f.Kind, f.Hash)
	}
	for _, t := range targets {
		addr, err := net.ResolveUDPAddr("udp", t)
		if err != nil {
			continue
		}
		for _, p := range packets {
			if _, err := n.conn.WriteToUDP(p, addr); err == nil {
				n.sent.Add(1)
			}
		}
	}
}

// targets picks up to Fanout gossip addresses this round: every known
// live member (excluding self) plus the configured seed peers, shuffled.
// Seeds stay in the candidate set forever, so a node that lost its whole
// view (or a seed that was down at boot) is re-discovered.
func (n *Node) targets(now time.Time) []string {
	seen := map[string]bool{n.GossipAddr(): true}
	var out []string
	add := func(addr string) {
		if addr == "" || seen[addr] {
			return
		}
		seen[addr] = true
		out = append(out, addr)
	}
	for _, f := range n.acc.Nodes(now) {
		if f.Node != n.cfg.ID {
			add(f.Gossip)
		}
	}
	for _, p := range n.cfg.Peers {
		add(p)
	}
	rand.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	if len(out) > n.cfg.Fanout {
		out = out[:n.cfg.Fanout]
	}
	return out
}

// receiveLoop accepts datagrams until Close, merging what verifies and
// decodes.
func (n *Node) receiveLoop() {
	defer n.wg.Done()
	buf := make([]byte, 64<<10)
	for {
		sz, _, err := n.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-n.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		facts, err := DecodePacket(buf[:sz], n.cfg.Secret)
		if err != nil {
			n.badPackets.Add(1)
			continue
		}
		now := time.Now()
		for _, f := range facts {
			// Never let an echo of our own knowledge override the local
			// truth: we are the sole authority on what we hold.
			if f.Node == n.cfg.ID {
				continue
			}
			n.acc.Observe(f, now)
		}
		n.received.Add(1)
	}
}

// Members returns the live membership view, self included, sorted by ID.
func (n *Node) Members() []Member {
	now := time.Now()
	var out []Member
	for _, f := range n.acc.Nodes(now) {
		out = append(out, Member{ID: f.Node, Gossip: f.Gossip, Load: f.Load})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Peers returns the live member count excluding self.
func (n *Node) Peers() int {
	c := 0
	for _, m := range n.Members() {
		if m.ID != n.cfg.ID {
			c++
		}
	}
	return c
}

// ManifestPayload returns some live holder's gossiped manifest payload
// for hash — the warm-start manifest row that lets this node compile
// the exchange locally. Holders are consulted in Facts order
// (deterministic); the payloads are interchangeable because the
// manifest row reproduces the canonical mapping and its fingerprint.
func (n *Node) ManifestPayload(hash string) ([]byte, bool) {
	for _, f := range n.acc.Holders(hash, time.Now()) {
		if len(f.Payload) > 0 {
			return f.Payload, true
		}
	}
	return nil, false
}
