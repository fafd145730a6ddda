package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
// HTTP listener in front of it.
type fleetMember struct {
	srv *Server
	ts  *httptest.Server
}

// url is the member's base URL.
func (m fleetMember) url() string { return m.ts.URL }

// kill simulates a crash: the HTTP listener and the gossip socket both
// go away, so peers stop hearing from the node and expire its facts.
func (m fleetMember) kill() {
	m.ts.Close()
	_ = m.srv.Close()
}

// startFleet boots an n-node fleet; compile, when non-nil, is every
// node's Config.Compile. Cleanup closes everything; killing a member
// mid-test is fine (Close is idempotent).
func startFleet(t *testing.T, n int, compile CompileFunc) []fleetMember {
	t.Helper()
	members := make([]fleetMember, 0, n)
	var seeds []string
	for i := 0; i < n; i++ {
		fc := &fleet.Config{
			ID:       fmt.Sprintf("node-%d", i),
			BindUDP:  "127.0.0.1:0",
			Peers:    append([]string(nil), seeds...),
			Interval: testGossipInterval,
			TTL:      testFactTTL,
			Secret:   "fleet-test",
		}
		s := mustNew(t, Config{FleetConfig: fc, Compile: compile, Logf: func(string, ...any) {}})
		ts := httptest.NewServer(s.Handler())
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

// httpDo runs one request against a member's real listener.
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
func directSolution(t *testing.T, mapping, source string, opts ...tdx.Option) (string, []byte) {
	t.Helper()
	ex, err := tdx.Compile(mapping, append(opts, tdx.WithRunInterner())...)
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

// waitPayload waits until m has heard a gossiped manifest payload for
// hash.
func waitPayload(t *testing.T, m fleetMember, hash string) {
	t.Helper()
	waitFor(t, "fact replication to "+m.srv.Fleet().ID(), func() bool {
		_, ok := m.srv.Fleet().ManifestPayload(hash)
		return ok
	})
}

// runOnceCompiled posts two /runs through m, which did not register
// the mapping: both must match want, and m must have compiled the
// gossiped mapping once, for the first, and served the second from
// that entry.
func runOnceCompiled(t *testing.T, m fleetMember, hash, source string, want []byte) {
	t.Helper()
	for i := 1; i <= 2; i++ {
		if got := runOn(t, m, hash, source); !bytes.Equal(got, want) {
			t.Fatalf("run %d via %s differs from the direct run:\n%s\nvs\n%s", i, m.srv.Fleet().ID(), got, want)
		}
		if c := m.srv.fleetCompiles.Load(); c != 1 {
			t.Fatalf("%s fleetCompiles = %d after run %d, want 1", m.srv.Fleet().ID(), c, i)
		}
	}
	if c := m.srv.reg.Compiles(); c != 0 {
		t.Fatalf("%s counted its fault-in as %d request-driven compiles", m.srv.Fleet().ID(), c)
	}
}

// TestFleetTwoNodeForward is the core fleet contract: an exchange
// registered on node A answers a /run posted to node B, which compiles
// the mapping from A's gossiped manifest row and serves it locally —
// byte-identical to the direct engine run and to a standalone server.
func TestFleetTwoNodeForward(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	wantHash, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	if hash != wantHash {
		t.Fatalf("registered hash %s, direct fingerprint %s", hash, wantHash)
	}
	waitPayload(t, b, hash)
	runOnceCompiled(t, b, hash, source, want)

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

	// The origin node serves the same bytes from its own registration.
	local := runOn(t, a, hash, source)
	if !bytes.Equal(local, want) {
		t.Fatal("origin node's local solution differs")
	}
	if c := a.srv.fleetCompiles.Load(); c != 0 {
		t.Fatalf("origin node fault-compiled its own exchange: %d", c)
	}
}

// TestFleetFaultInCompilesOnce: a burst of requests for an exchange a
// node does not hold shares one compile. The stub compile sleeps, so
// the requests overlap it.
func TestFleetFaultInCompilesOnce(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	var calls atomic.Int64
	slow := func(text string, opts ...tdx.Option) (*tdx.Exchange, error) {
		calls.Add(1)
		time.Sleep(100 * time.Millisecond)
		return tdx.Compile(text, opts...)
	}
	nodes := startFleet(t, 2, slow)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	waitPayload(t, b, hash)
	before := calls.Load()

	const burst = 16
	statuses := make([]int, burst)
	bodies := make([][]byte, burst)
	var wg sync.WaitGroup
	for i := range statuses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(b.url()+"/v1/exchanges/"+hash+"/run", "text/plain", strings.NewReader(source))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if n := calls.Load() - before; n != 1 {
		t.Fatalf("%d concurrent fault-ins compiled %d times, want 1", burst, n)
	}
	if c := b.srv.fleetCompiles.Load(); c != 1 {
		t.Fatalf("fleetCompiles = %d, want 1", c)
	}
	for i, body := range bodies {
		var resp struct {
			Solution json.RawMessage `json:"solution"`
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, statuses[i], body)
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Solution, want) {
			t.Fatalf("request %d: solution differs from the direct run", i)
		}
	}
}

// TestFleetFaultInBudget: ?timeout= bounds a request's wait for the
// fault-in compile; the compile finishes detached and serves the next
// request.
func TestFleetFaultInBudget(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	slow := func(text string, opts ...tdx.Option) (*tdx.Exchange, error) {
		time.Sleep(800 * time.Millisecond)
		return tdx.Compile(text, opts...)
	}
	nodes := startFleet(t, 2, slow)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	waitPayload(t, b, hash)

	started := time.Now()
	status, body := httpDo(t, "POST", b.url()+"/v1/exchanges/"+hash+"/run?timeout=50ms", "", source)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("fault-in past the budget: status %d: %s", status, body)
	}
	if elapsed := time.Since(started); elapsed > 600*time.Millisecond {
		t.Fatalf("504 after %v; the budget was 50ms", elapsed)
	}
	runOnceCompiled(t, b, hash, source, want)
}

// TestFleetHealthzAndMetrics pins the fleet observability surface: the
// /healthz fleet block and the tdxd_* fleet counters on /metrics.
func TestFleetHealthzAndMetrics(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")

	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, mapping)
	waitFor(t, "membership convergence", func() bool {
		_, ok := b.srv.Fleet().ManifestPayload(hash)
		return ok && a.srv.Fleet().Peers() == 1 && b.srv.Fleet().Peers() == 1
	})
	runOn(t, b, hash, source) // one fault-in compile

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
	for i, m := range []fleetMember{a, b} {
		if got := hz.Fleet.Members[i]; got.ID != m.srv.Fleet().ID() || got.Gossip != m.srv.Fleet().GossipAddr() {
			t.Fatalf("member %d = %+v, want %s at %s", i, got, m.srv.Fleet().ID(), m.srv.Fleet().GossipAddr())
		}
	}
	if hz.Fleet.FleetCompiles != 1 {
		t.Fatalf("fleet block fleetCompiles = %d, want 1", hz.Fleet.FleetCompiles)
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
		"tdxd_peers":                1,
		"tdxd_fleet_compiles_total": 1,
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
	for _, name := range []string{"tdxd_peers", "tdxd_fleet_compiles_total", "tdxd_gossip_sent_total"} {
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

	nodes := startFleet(t, 3, nil)
	hash := registerOn(t, nodes[0], mapping)
	for _, m := range nodes[1:] {
		waitPayload(t, m, hash)
	}
	if got := runOn(t, nodes[0], hash, source); !bytes.Equal(got, want) {
		t.Fatal("solution via the origin node differs from direct run")
	}
	for _, m := range nodes[1:] {
		runOnceCompiled(t, m, hash, source, want)
	}
}

// TestFleetFailover kills the only holder of an exchange registered
// with non-default compile options: a survivor keeps serving it,
// compiled from the dead node's still-live gossip; the dead node's
// facts expire from every survivor via TTL; and the other survivor then
// compiles it from the first survivor's gossiped payload, the only one
// left. Every compile outlasts several gossip rounds, so the first
// survivor gossips while its fault-in is in flight; its payload must
// still carry the options, or it compiles to another fingerprint.
func TestFleetFailover(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	wantHash, want := directSolution(t, mapping, source, tdx.WithNorm(tdx.NormNaive))

	slow := func(text string, opts ...tdx.Option) (*tdx.Exchange, error) {
		time.Sleep(10 * testGossipInterval)
		return tdx.Compile(text, opts...)
	}
	nodes := startFleet(t, 3, slow)
	env, err := json.Marshal(registerRequest{Mapping: mapping, Options: requestOptions{Norm: "naive"}})
	if err != nil {
		t.Fatal(err)
	}
	status, body := httpDo(t, "POST", nodes[0].url()+"/v1/mappings", "application/json", string(env))
	if status != http.StatusCreated {
		t.Fatalf("register: status %d: %s", status, body)
	}
	var reg registerResponse
	if err := json.Unmarshal(body, &reg); err != nil {
		t.Fatal(err)
	}
	hash := reg.Hash
	if hash != wantHash {
		t.Fatalf("registered hash %s, direct fingerprint %s", hash, wantHash)
	}
	for _, m := range nodes[1:] {
		waitPayload(t, m, hash)
	}

	nodes[0].kill()
	runOnceCompiled(t, nodes[1], hash, source, want)

	// TTL failure detection: the dead node ages out of both survivors'
	// views, and the expiry counter says the sweep did it.
	for _, m := range nodes[1:] {
		waitFor(t, "dead node expiry on "+m.srv.Fleet().ID(), func() bool {
			for _, mem := range m.srv.Fleet().Members() {
				if mem.ID == "node-0" {
					return false
				}
			}
			return m.srv.Fleet().FactsExpired() > 0
		})
	}
	waitFor(t, "node-2 hearing the exchange from node-1 alone", func() bool {
		holders := nodes[2].srv.Fleet().Accumulator().Holders(hash, time.Now())
		return len(holders) == 1 && holders[0].Node == "node-1"
	})
	runOnceCompiled(t, nodes[2], hash, source, want)
}

// TestFleetTwoNodeFailover: with two nodes, the survivor has no live
// peer at all once the holder dies; it compiles from the dead holder's
// gossip, which outlives the node by up to a TTL.
func TestFleetTwoNodeFailover(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")
	_, want := directSolution(t, mapping, source)

	nodes := startFleet(t, 2, nil)
	hash := registerOn(t, nodes[0], mapping)
	waitPayload(t, nodes[1], hash)

	nodes[0].kill()
	runOnceCompiled(t, nodes[1], hash, source, want)
}

// TestFleetForwardBodyBudget: a node that does not hold the hash faults
// the exchange in and then reads the body under the request budget, so
// a client trickling the body gets its 504 when ?timeout= lapses, not
// once the whole body has arrived.
func TestFleetForwardBodyBudget(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	hash := registerOn(t, a, readTestdata(t, "employment.tdx"))
	waitPayload(t, b, hash)

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
		t.Fatalf("trickled body: status %d, want 504", resp.StatusCode)
	}
	if elapsed > 1500*time.Millisecond {
		t.Fatalf("trickled body answered after %v; the budget was 300ms", elapsed)
	}
	if c := b.srv.fleetCompiles.Load(); c != 1 {
		t.Fatalf("node-1 fleetCompiles = %d, want 1: the request did not take the fault-in path", c)
	}
}

// TestFleetUnknownHash: a hash nobody holds 404s with the fleet-wide
// message.
func TestFleetUnknownHash(t *testing.T) {
	nodes := startFleet(t, 2, nil)
	bogus := strings.Repeat("ab", 32)
	status, body := httpDo(t, "POST", nodes[1].url()+"/v1/exchanges/"+bogus+"/run", "", "E(a, X) @ [1, 2)")
	if status != http.StatusNotFound {
		t.Fatalf("unknown hash: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "anywhere in the fleet") {
		t.Fatalf("unknown-hash error lost the fleet wording: %s", body)
	}
}
