package fleet

import (
	"fmt"
	"testing"
	"time"
)

// newTestNode builds a started loopback node with a fast clock: short
// interval and TTL so convergence and expiry both happen inside a test
// timeout.
func newTestNode(t *testing.T, id string, peers []string, local func(time.Time) []Fact) *Node {
	t.Helper()
	n, err := New(Config{
		ID:       id,
		Peers:    peers,
		Interval: 20 * time.Millisecond,
		TTL:      300 * time.Millisecond,
		Secret:   "test-fleet",
	}, local)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	n.Start()
	return n
}

// eventually polls cond until it holds or the deadline lapses.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("never converged: %s", what)
}

func exchangeFact(hash string, stamp int64) Fact {
	return Fact{Kind: KindExchange, Hash: hash, Stamp: stamp, Payload: []byte(`{"mapping":"m-` + hash + `"}`)}
}

func TestNodeConvergence(t *testing.T) {
	// a holds h1; b and c start empty and only know a as a seed. All
	// three must converge on the same membership and holder view — c
	// discovers b transitively through a.
	a := newTestNode(t, "a", nil, func(time.Time) []Fact { return []Fact{exchangeFact("h1", 1)} })
	b := newTestNode(t, "b", []string{a.GossipAddr()}, nil)
	c := newTestNode(t, "c", []string{a.GossipAddr()}, nil)

	for _, n := range []*Node{a, b, c} {
		n := n
		eventually(t, fmt.Sprintf("node %s sees 3 members", n.ID()), func() bool {
			return len(n.Members()) == 3
		})
		eventually(t, fmt.Sprintf("node %s learns the h1 holder", n.ID()), func() bool {
			h := n.Accumulator().Holders("h1", time.Now())
			return len(h) == 1 && h[0].Node == "a"
		})
	}
	// Membership agrees everywhere, and each member is listed under the
	// gossip address it bound.
	all := []*Node{a, b, c}
	for _, n := range all {
		for i, m := range n.Members() {
			want := all[i]
			if m.ID != want.ID() || m.Gossip != want.GossipAddr() {
				t.Fatalf("node %s member %d = %+v, want %s at %s", n.ID(), i, m, want.ID(), want.GossipAddr())
			}
		}
	}
	// The manifest payload traveled with the fact.
	for _, n := range []*Node{b, c} {
		payload, ok := n.ManifestPayload("h1")
		if !ok || string(payload) != `{"mapping":"m-h1"}` {
			t.Fatalf("node %s payload %q ok=%v", n.ID(), payload, ok)
		}
	}
	if a.GossipSent() == 0 || b.GossipReceived() == 0 {
		t.Fatalf("counters flat: sent=%d received=%d", a.GossipSent(), b.GossipReceived())
	}
}

func TestNodeTTLExpiry(t *testing.T) {
	a := newTestNode(t, "a", nil, func(time.Time) []Fact { return []Fact{exchangeFact("h1", 1)} })
	b := newTestNode(t, "b", []string{a.GossipAddr()}, nil)
	eventually(t, "b sees a's exchange", func() bool {
		return len(b.Accumulator().Holders("h1", time.Now())) == 1
	})
	// Kill a: without refreshes its facts must evaporate from b within
	// the TTL (plus a sweep), and the membership view must shrink.
	a.Close()
	eventually(t, "a's facts expire on b", func() bool {
		// The counter rides the sweep (a gossip round), which may lag the
		// filtered views by one interval.
		return len(b.Members()) == 1 &&
			len(b.Accumulator().Holders("h1", time.Now())) == 0 &&
			b.FactsExpired() > 0
	})
}

func TestNodeWithdrawal(t *testing.T) {
	// The local() callback stops returning an exchange: the node must
	// stop asserting it, and peers forget it one TTL later.
	holding := make(chan bool, 1)
	holding <- true
	hold := true
	a := newTestNode(t, "a", nil, func(time.Time) []Fact {
		select {
		case hold = <-holding:
		default:
		}
		if hold {
			return []Fact{exchangeFact("h1", 1)}
		}
		return nil
	})
	b := newTestNode(t, "b", []string{a.GossipAddr()}, nil)
	eventually(t, "b learns h1", func() bool {
		return len(b.Accumulator().Holders("h1", time.Now())) == 1
	})
	holding <- false
	eventually(t, "b forgets h1 after withdrawal", func() bool {
		return len(b.Accumulator().Holders("h1", time.Now())) == 0
	})
	eventually(t, "b still sees both members", func() bool {
		return len(b.Members()) == 2
	})
}

func TestNodeSecretMismatch(t *testing.T) {
	a, err := New(Config{ID: "a", Interval: 20 * time.Millisecond, Secret: "one"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.Start()
	b, err := New(Config{ID: "b", Interval: 20 * time.Millisecond, Secret: "two",
		Peers: []string{a.GossipAddr()}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	b.Start()
	eventually(t, "a drops mis-signed packets", func() bool { return a.BadPackets() > 0 })
	if len(a.Members()) != 1 || len(b.Members()) != 1 {
		t.Fatalf("mis-signed fleets merged: a=%d b=%d members", len(a.Members()), len(b.Members()))
	}
}
