package fleet

import (
	"testing"
	"time"
)

func TestAccumulatorNewestStampWins(t *testing.T) {
	a := NewAccumulator()
	t0 := time.Unix(0, 0)
	f := Fact{Kind: KindExchange, Node: "n1", Hash: "h1", Stamp: 10, TTL: time.Second, Gossip: "a1"}
	if !a.Observe(f, t0) {
		t.Fatal("first observation taught nothing")
	}
	// An older stamp must not regress the view.
	old := f
	old.Stamp, old.Gossip = 5, "stale"
	if a.Observe(old, t0) {
		t.Fatal("older stamp reported novel")
	}
	got, ok := a.Lookup(KindExchange, "n1", "h1", t0)
	if !ok || got.Gossip != "a1" {
		t.Fatalf("older stamp overwrote: %+v", got)
	}
	// A newer stamp replaces it.
	newer := f
	newer.Stamp, newer.Gossip = 20, "a2"
	if !a.Observe(newer, t0) {
		t.Fatal("newer stamp reported stale")
	}
	if got, _ := a.Lookup(KindExchange, "n1", "h1", t0); got.Gossip != "a2" {
		t.Fatalf("newer stamp did not replace: %+v", got)
	}
	// Re-observing the same stamp is an echo: not news, and NOT a TTL
	// refresh — otherwise peers relaying a dead node's facts to each
	// other would keep them alive forever.
	later := t0.Add(900 * time.Millisecond)
	if a.Observe(newer, later) {
		t.Fatal("equal stamp reported novel")
	}
	if _, ok := a.Lookup(KindExchange, "n1", "h1", t0.Add(1500*time.Millisecond)); ok {
		t.Fatal("equal-stamp echo extended the TTL")
	}
	// Only a strictly newer stamp — which only the live origin mints —
	// refreshes the expiry.
	fresh := newer
	fresh.Stamp = 30
	if !a.Observe(fresh, later) {
		t.Fatal("newer stamp reported stale")
	}
	if _, ok := a.Lookup(KindExchange, "n1", "h1", t0.Add(1500*time.Millisecond)); !ok {
		t.Fatal("origin refresh did not extend the TTL")
	}
}

func TestAccumulatorExpiry(t *testing.T) {
	a := NewAccumulator()
	t0 := time.Unix(100, 0)
	a.Observe(Fact{Kind: KindNode, Node: "n1", Stamp: 1, TTL: time.Second}, t0)
	a.Observe(Fact{Kind: KindNode, Node: "n2", Stamp: 1, TTL: 10 * time.Second}, t0)
	a.Observe(Fact{Kind: KindExchange, Node: "n1", Hash: "h", Stamp: 1, TTL: time.Second}, t0)
	if n := a.Expire(t0.Add(500 * time.Millisecond)); n != 0 {
		t.Fatalf("early expiry dropped %d", n)
	}
	if n := a.Expire(t0.Add(2 * time.Second)); n != 2 {
		t.Fatalf("expiry dropped %d, want 2 (n1's node and exchange facts)", n)
	}
	if a.Expired() != 2 {
		t.Fatalf("Expired() = %d, want 2", a.Expired())
	}
	if nodes := a.Nodes(t0.Add(2 * time.Second)); len(nodes) != 1 || nodes[0].Node != "n2" {
		t.Fatalf("membership after expiry: %+v", nodes)
	}
	if h := a.Holders("h", t0.Add(2*time.Second)); len(h) != 0 {
		t.Fatalf("expired holder still visible: %+v", h)
	}
}

func TestAccumulatorDrop(t *testing.T) {
	a := NewAccumulator()
	t0 := time.Unix(0, 0)
	a.Observe(Fact{Kind: KindNode, Node: "me", Stamp: 1, TTL: time.Minute}, t0)
	a.Observe(Fact{Kind: KindExchange, Node: "me", Hash: "h1", Stamp: 1, TTL: time.Minute}, t0)
	a.Observe(Fact{Kind: KindExchange, Node: "other", Hash: "h1", Stamp: 1, TTL: time.Minute}, t0)
	a.Drop("me")
	facts := a.Facts(t0)
	if len(facts) != 1 || facts[0].Node != "other" {
		t.Fatalf("Drop left %+v", facts)
	}
}

func TestAccumulatorRejectsJunk(t *testing.T) {
	a := NewAccumulator()
	now := time.Now()
	if a.Observe(Fact{Kind: KindNode, Node: "", TTL: time.Second}, now) {
		t.Fatal("originless fact accepted")
	}
	if a.Observe(Fact{Kind: KindNode, Node: "x", TTL: 0}, now) {
		t.Fatal("ttl-less fact accepted")
	}
	if a.Len() != 0 {
		t.Fatal("junk held")
	}
}
