package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	tdx "repro"
	"repro/internal/fleet"
)

// The in-process fleet harness: n tdxd servers on loopback listeners,
// each a fleet node gossiping over loopback UDP, seeded in a chain
// (node i knows node i-1's gossip address; the rest is transitive
// discovery). Test intervals are short — 20ms gossip, 300ms TTL — so
// convergence and expiry both land well inside the waitFor budget.

const (
	testGossipInterval = 20 * time.Millisecond
	testFactTTL        = 300 * time.Millisecond
)

// fleetMember is one node of the test fleet: the server and the real
// HTTP listener in front of it (forwarding needs a dialable address).
type fleetMember struct {
	srv *Server
	ts  *httptest.Server
}

// url is the member's base URL.
func (m fleetMember) url() string { return m.ts.URL }

// kill simulates a crash: the HTTP listener and the gossip socket both
// go away, so peers see connection failures now and fact expiry later.
func (m fleetMember) kill() {
	m.ts.Close()
	_ = m.srv.Close()
}

// startFleet boots an n-node fleet. Cleanup closes everything; killing
// a member mid-test is fine (Close is idempotent).
func startFleet(t *testing.T, n int) []fleetMember {
	t.Helper()
	members := make([]fleetMember, 0, n)
	var seeds []string
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		fc := &fleet.Config{
			ID:            fmt.Sprintf("node-%d", i),
			AdvertiseHTTP: ln.Addr().String(),
			BindUDP:       "127.0.0.1:0",
			Peers:         append([]string(nil), seeds...),
			Interval:      testGossipInterval,
			TTL:           testFactTTL,
			Secret:        "fleet-test",
		}
		s := mustNew(t, Config{FleetConfig: fc, Logf: func(string, ...any) {}})
		ts := httptest.NewUnstartedServer(s.Handler())
		ts.Listener.Close()
		ts.Listener = ln
		ts.Start()
		s.Fleet().Start()
		seeds = append(seeds, s.Fleet().GossipAddr())
		members = append(members, fleetMember{srv: s, ts: ts})
	}
	t.Cleanup(func() {
		for _, m := range members {
			m.kill()
		}
	})
	return members
}

// waitFor polls cond until it holds or the convergence budget lapses.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// httpDo runs one request against a real listener (unlike do, which
// drives the handler in-process and so can never be forwarded).
func httpDo(t *testing.T, method, url, contentType, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// registerOn registers a mapping over HTTP and returns its hash.
func registerOn(t *testing.T, m fleetMember, mapping string) string {
	t.Helper()
	status, body := httpDo(t, "POST", m.url()+"/v1/mappings", "", mapping)
	if status != http.StatusCreated && status != http.StatusOK {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var resp registerResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Hash
}

// runOn posts a /run and returns the embedded solution document.
func runOn(t *testing.T, m fleetMember, hash, source string) json.RawMessage {
	t.Helper()
	status, body := httpDo(t, "POST", m.url()+"/v1/exchanges/"+hash+"/run", "", source)
	if status != http.StatusOK {
		t.Fatalf("run via %s: status %d: %s", m.srv.Fleet().ID(), status, body)
	}
	var resp struct {
		Solution json.RawMessage `json:"solution"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Solution
}

// directSolution chases the source on a freshly compiled exchange —
// the engine-level baseline every node must match byte for byte.
func directSolution(t *testing.T, mapping, source string) (string, []byte) {
	t.Helper()
	ex, err := tdx.Compile(mapping, tdx.WithRunInterner())
	if err != nil {
		t.Fatal(err)
	}
	src, err := ex.ParseSource(source)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := sol.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, doc); err != nil {
		t.Fatal(err)
	}
	return ex.Fingerprint(), compact.Bytes()
}

// TestFleetTwoNodeForward is the core routing contract: an exchange
// registered on node A answers a /run posted to node B — forwarded, and
// byte-identical to the direct engine run and to a standalone server.
func TestFleetTwoNodeForward(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	wantHash, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 2)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	if hash != wantHash {
		t.Fatalf("registered hash %s, direct fingerprint %s", hash, wantHash)
	}
	waitFor(t, "fact replication to node-1", func() bool {
		_, ok := b.srv.Fleet().ManifestPayload(hash)
		return ok
	})

	got := runOn(t, b, hash, source)
	if !bytes.Equal(got, want) {
		t.Fatalf("forwarded solution differs from direct run:\n%s\nvs\n%s", got, want)
	}
	if b.srv.forwards.Load() != 1 {
		t.Fatalf("node-1 forwards = %d, want 1", b.srv.forwards.Load())
	}

	// The same request against a standalone daemon: one mapping, three
	// serving shapes, one answer.
	solo := mustNew(t, Config{})
	h := solo.Handler()
	if soloHash := register(t, h, mapping); soloHash != hash {
		t.Fatalf("standalone hash %s differs from fleet hash %s", soloHash, hash)
	}
	soloSol := runSolution(t, h, hash, source)
	if !bytes.Equal(soloSol, want) {
		t.Fatalf("standalone solution differs from direct run")
	}

	// The origin node serves the same bytes locally, without forwarding.
	local := runOn(t, a, hash, source)
	if !bytes.Equal(local, want) {
		t.Fatal("origin node's local solution differs")
	}
	if a.srv.forwards.Load() != 0 {
		t.Fatalf("origin node forwarded its own exchange: %d", a.srv.forwards.Load())
	}
}

// TestFleetHealthzAndMetrics pins the fleet observability surface: the
// /healthz fleet block and the tdxd_* fleet counters on /metrics.
func TestFleetHealthzAndMetrics(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")

	nodes := startFleet(t, 2)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	waitFor(t, "membership convergence", func() bool {
		_, ok := b.srv.Fleet().ManifestPayload(hash)
		return ok && a.srv.Fleet().Peers() == 1 && b.srv.Fleet().Peers() == 1
	})
	runOn(t, b, hash, source) // one forward

	status, body := httpDo(t, "GET", b.url()+"/healthz", "", "")
	if status != http.StatusOK {
		t.Fatalf("healthz: status %d", status)
	}
	var hz healthResponse
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Fleet == nil {
		t.Fatal("fleet-mode healthz carries no fleet block")
	}
	if hz.Fleet.NodeID != "node-1" || hz.Fleet.Peers != 1 || len(hz.Fleet.Members) != 2 {
		t.Fatalf("fleet block: %+v", hz.Fleet)
	}
	if hz.Fleet.Forwards != 1 {
		t.Fatalf("fleet block forwards = %d, want 1", hz.Fleet.Forwards)
	}
	if hz.Fleet.GossipSent == 0 || hz.Fleet.GossipReceived == 0 {
		t.Fatalf("gossip counters silent: %+v", hz.Fleet)
	}

	status, body = httpDo(t, "GET", b.url()+"/metrics", "", "")
	if status != http.StatusOK {
		t.Fatalf("metrics: status %d", status)
	}
	metrics := parseMetrics(t, string(body))
	for name, want := range map[string]int64{
		"tdxd_peers":          1,
		"tdxd_forwards_total": 1,
	} {
		if metrics[name] != want {
			t.Fatalf("%s = %d, want %d", name, metrics[name], want)
		}
	}
	for _, name := range []string{"tdxd_gossip_sent_total", "tdxd_gossip_received_total"} {
		if metrics[name] <= 0 {
			t.Fatalf("%s = %d, want > 0", name, metrics[name])
		}
	}
	if _, ok := metrics["tdxd_facts_expired_total"]; !ok {
		t.Fatal("tdxd_facts_expired_total not exposed")
	}

	// A standalone daemon exposes the same names, all zero — one scrape
	// config covers both shapes, and its healthz has no fleet block.
	solo := mustNew(t, Config{})
	rec := do(solo.Handler(), "GET", "/metrics", "", "")
	soloMetrics := parseMetrics(t, rec.Body.String())
	for _, name := range []string{"tdxd_peers", "tdxd_forwards_total", "tdxd_gossip_sent_total"} {
		if v, ok := soloMetrics[name]; !ok || v != 0 {
			t.Fatalf("standalone %s = %d (present %v), want 0", name, v, ok)
		}
	}
	if hzSolo := health(t, solo.Handler()); hzSolo.Fleet != nil {
		t.Fatal("standalone healthz grew a fleet block")
	}
}

// parseMetrics reads the Prometheus text exposition into a name→value
// map (integer-valued samples only, which is all tdxd emits).
func parseMetrics(t *testing.T, text string) map[string]int64 {
	t.Helper()
	out := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var name string
		var value int64
		if _, err := fmt.Sscanf(line, "%s %d", &name, &value); err != nil {
			t.Fatalf("unparsable metrics line %q: %v", line, err)
		}
		out[name] = value
	}
	return out
}

// TestFleetThreeNodeAnyNode is the acceptance criterion at n=3: an
// exchange registered on one node answers identically through every
// node, and the answer is the direct engine run's bytes.
func TestFleetThreeNodeAnyNode(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 3)
	hash := registerOn(t, nodes[0], mapping)
	for _, m := range nodes[1:] {
		m := m
		waitFor(t, "fact replication to "+m.srv.Fleet().ID(), func() bool {
			_, ok := m.srv.Fleet().ManifestPayload(hash)
			return ok
		})
	}
	for _, m := range nodes {
		got := runOn(t, m, hash, source)
		if !bytes.Equal(got, want) {
			t.Fatalf("solution via %s differs from direct run", m.srv.Fleet().ID())
		}
	}
	// The two non-origin nodes either forwarded to the origin or (as
	// forward targets of each other) compiled from gossip; both paths
	// must have left the origin's copy authoritative and counted.
	relayed := nodes[1].srv.forwards.Load() + nodes[2].srv.forwards.Load() +
		nodes[1].srv.fleetCompiles.Load() + nodes[2].srv.fleetCompiles.Load()
	if relayed == 0 {
		t.Fatal("non-origin nodes served without forwarding or fleet compiling")
	}
}

// TestFleetFailover kills the only holder of an exchange: the surviving
// nodes must keep serving it (fallback compile from the gossiped
// manifest payload), and the dead node's facts must expire from every
// survivor's membership via TTL.
func TestFleetFailover(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 3)
	hash := registerOn(t, nodes[0], mapping)
	for _, m := range nodes[1:] {
		m := m
		waitFor(t, "fact replication to "+m.srv.Fleet().ID(), func() bool {
			_, ok := m.srv.Fleet().ManifestPayload(hash)
			return ok
		})
	}

	nodes[0].kill()

	// Both survivors answer — by fallback compile, or by forwarding to
	// the survivor that already fell back — and the bytes still match.
	for _, m := range nodes[1:] {
		got := runOn(t, m, hash, source)
		if !bytes.Equal(got, want) {
			t.Fatalf("post-failover solution via %s differs", m.srv.Fleet().ID())
		}
	}
	if compiles := nodes[1].srv.fleetCompiles.Load() + nodes[2].srv.fleetCompiles.Load(); compiles == 0 {
		t.Fatal("no survivor fallback-compiled the dead node's exchange")
	}

	// TTL failure detection: the dead node ages out of both survivors'
	// views, and the expiry counter says the sweep did it.
	for _, m := range nodes[1:] {
		m := m
		waitFor(t, "dead node expiry on "+m.srv.Fleet().ID(), func() bool {
			for _, mem := range m.srv.Fleet().Members() {
				if mem.ID == "node-0" {
					return false
				}
			}
			return m.srv.Fleet().FactsExpired() > 0
		})
	}

	// Post-expiry traffic still serves: the survivors now hold the
	// exchange themselves.
	got := runOn(t, nodes[1], hash, source)
	if !bytes.Equal(got, want) {
		t.Fatal("post-expiry solution differs")
	}
}

// TestFleetTwoNodeFailover pins the exhausted-candidates path: with two
// nodes, the survivor's forward list holds only the dead holder, so the
// request must fall through to the local fallback compile — and the
// handler must still find the request body the forward loop buffered.
func TestFleetTwoNodeFailover(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 2)
	hash := registerOn(t, nodes[0], mapping)
	waitFor(t, "fact replication to node-1", func() bool {
		_, ok := nodes[1].srv.Fleet().ManifestPayload(hash)
		return ok
	})

	nodes[0].kill()

	got := runOn(t, nodes[1], hash, source)
	if !bytes.Equal(got, want) {
		t.Fatal("survivor's fallback solution differs from direct run")
	}
	if f := nodes[1].srv.forwards.Load(); f != 0 {
		t.Fatalf("survivor counted %d forwards with no live peer", f)
	}
	if c := nodes[1].srv.fleetCompiles.Load(); c != 1 {
		t.Fatalf("survivor fleetCompiles = %d, want 1", c)
	}
}

// TestFleetForwardBodyBudget: a node reads the body of a request it
// will forward under the request budget, so a client trickling the body
// to a node that does not hold the hash gets its 504 when ?timeout=
// lapses, not once the whole body has arrived.
func TestFleetForwardBodyBudget(t *testing.T) {
	nodes := startFleet(t, 2)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, readTestdata(t, "employment.tdx"))
	waitFor(t, "fact replication to node-1", func() bool {
		_, ok := b.srv.Fleet().ManifestPayload(hash)
		return ok
	})

	// 60 bytes at one byte per 50ms: the whole body takes 3s to send.
	body := strings.Repeat("E(Ada, IBM) @ [2012, 2014)\n", 3)[:60]
	pr, pw := io.Pipe()
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		for i := 0; i < len(body); i++ {
			if _, err := pw.Write([]byte{body[i]}); err != nil {
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		pw.Close()
	}()
	req, err := http.NewRequest("POST", b.url()+"/v1/exchanges/"+hash+"/run?timeout=300ms", pr)
	if err != nil {
		t.Fatal(err)
	}
	started := time.Now()
	resp, err := http.DefaultClient.Do(req)
	elapsed := time.Since(started)
	pr.Close() // stops the trickle
	<-sent
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("trickled forward: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("trickled forward answered after %v; the budget was 300ms", elapsed)
	}
	if f := b.srv.forwards.Load(); f != 0 {
		t.Fatalf("node-1 relayed %d requests whose body never arrived", f)
	}
}

// TestFleetUnknownHash: a hash nobody holds 404s with the fleet-wide
// message, from any node, without hanging on forwards.
func TestFleetUnknownHash(t *testing.T) {
	nodes := startFleet(t, 2)
	bogus := strings.Repeat("ab", 32)
	status, body := httpDo(t, "POST", nodes[1].url()+"/v1/exchanges/"+bogus+"/run", "", "E(a, X) @ [1, 2)")
	if status != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "anywhere in the fleet") {
		t.Fatalf("unknown-hash error lost the fleet wording: %s", body)
	}
}
