package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tdx "repro"
)

func readTestdata(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// mustNew builds a server, failing the test on configuration errors.
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// do runs one request through the routed handler.
func do(h http.Handler, method, target, contentType, body string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// register registers a raw mapping text and returns its hash.
func register(t testing.TB, h http.Handler, mapping string) string {
	t.Helper()
	rec := do(h, "POST", "/v1/mappings", "", mapping)
	if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
		t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
	}
	var resp registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("register response: %v\n%s", err, rec.Body)
	}
	if len(resp.Hash) != 64 {
		t.Fatalf("hash is not a hex sha256: %q", resp.Hash)
	}
	return resp.Hash
}

func TestRegisterAndList(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	text := readTestdata(t, "employment.tdx")

	rec := do(h, "POST", "/v1/mappings", "", text)
	if rec.Code != http.StatusCreated {
		t.Fatalf("first register: status %d: %s", rec.Code, rec.Body)
	}
	var first registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Cached || first.Info.TGDs != 2 || first.Info.EGDs != 1 || first.Info.Queries != 1 || first.Info.Temporal {
		t.Fatalf("first register response: %+v", first)
	}

	// The same text again: cached, same hash, 200.
	rec = do(h, "POST", "/v1/mappings", "", text)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-register: status %d", rec.Code)
	}
	var second registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	if !second.Cached || second.Hash != first.Hash {
		t.Fatalf("re-register response: %+v (want cached, hash %s)", second, first.Hash)
	}

	// A reformatted text (comments, whitespace) lands on the same entry:
	// the registry is keyed on the canonical fingerprint.
	noisy := "# reformatted\n" + strings.ReplaceAll(text, "tgd sigma1:", "tgd   sigma1:  ")
	rec = do(h, "POST", "/v1/mappings", "", noisy)
	if rec.Code != http.StatusOK {
		t.Fatalf("noisy register: status %d: %s", rec.Code, rec.Body)
	}
	var third registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &third); err != nil {
		t.Fatal(err)
	}
	if !third.Cached || third.Hash != first.Hash {
		t.Fatalf("noisy register did not dedup: %+v", third)
	}

	// The JSON envelope with options compiles a distinct exchange.
	env, _ := json.Marshal(registerRequest{Mapping: text, Options: requestOptions{Norm: "naive"}})
	rec = do(h, "POST", "/v1/mappings", "application/json", string(env))
	if rec.Code != http.StatusCreated {
		t.Fatalf("naive register: status %d: %s", rec.Code, rec.Body)
	}
	var naive registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &naive); err != nil {
		t.Fatal(err)
	}
	if naive.Hash == first.Hash {
		t.Fatal("naive-norm exchange shares the default exchange's hash")
	}

	rec = do(h, "GET", "/v1/mappings", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	var list listResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Mappings) != 2 || list.Capacity != DefaultCapacity {
		t.Fatalf("list: %+v", list)
	}
	// MRU first: the naive entry registered last.
	if list.Mappings[0].Hash != naive.Hash {
		t.Fatalf("list not MRU-ordered: %+v", list)
	}
}

// TestRunMatchesDirectRun is the acceptance criterion: the run
// endpoint's solution (facts and stats) is byte-identical to
// tdx.Exchange.Run called directly on the same source.
func TestRunMatchesDirectRun(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	mapping := readTestdata(t, "employment.tdx")
	facts := readTestdata(t, "employment.facts")
	hash := register(t, h, mapping)

	// The direct exchange, same engine options as the server applies.
	ex, err := tdx.Compile(mapping)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Fingerprint() != hash {
		t.Fatalf("server hash %s is not the exchange fingerprint %s", hash, ex.Fingerprint())
	}

	for _, body := range []struct {
		name, contentType, payload string
	}{
		{"text", "", facts},
		{"json", "application/json", string(directSourceJSON(t, ex, facts))},
	} {
		// The direct baseline decodes the source exactly as the server
		// will: fact insertion order steers null family numbering, so
		// "the same source" means the same decode path.
		var src *tdx.Instance
		if body.contentType == "" {
			src, err = ex.ParseSource(body.payload)
		} else {
			src, err = ex.DecodeSourceJSON(strings.NewReader(body.payload))
		}
		if err != nil {
			t.Fatal(err)
		}
		direct, err := ex.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		directJSON, err := direct.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var wantSolution bytes.Buffer
		if err := json.Compact(&wantSolution, directJSON); err != nil {
			t.Fatal(err)
		}
		rec := do(h, "POST", "/v1/exchanges/"+hash+"/run", body.contentType, body.payload)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s run: status %d: %s", body.name, rec.Code, rec.Body)
		}
		var resp struct {
			Hash     string          `json:"hash"`
			Stats    json.RawMessage `json:"stats"`
			Solution json.RawMessage `json:"solution"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Hash != hash {
			t.Fatalf("%s run: echoed hash %q", body.name, resp.Hash)
		}
		// Facts: byte-identical modulo JSON whitespace (the response is
		// compacted on the wire).
		if !bytes.Equal(resp.Solution, wantSolution.Bytes()) {
			t.Fatalf("%s run: solution differs from direct run:\n%s\nvs\n%s", body.name, resp.Solution, wantSolution.Bytes())
		}
		// Stats: byte-identical encoding.
		wantStats, err := json.Marshal(direct.Stats())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resp.Stats, wantStats) {
			t.Fatalf("%s run: stats differ:\n%s\nvs\n%s", body.name, resp.Stats, wantStats)
		}
	}
}

// directSourceJSON encodes the facts text as the TDX JSON instance
// format (via a parsed instance), exercising the JSON body path.
func directSourceJSON(t testing.TB, ex *tdx.Exchange, facts string) []byte {
	t.Helper()
	src, err := ex.ParseSource(facts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := src.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// directSolution chases the source on a freshly compiled exchange and
// returns its fingerprint and compacted solution document — the
// engine-level baseline a served solution must match byte for byte.
func directSolution(t *testing.T, mapping, source string, opts ...tdx.Option) (string, []byte) {
	t.Helper()
	ex, err := tdx.Compile(mapping, opts...)
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

// TestReRegisterOn404 pins the client pattern for several daemons: a
// daemon that never saw a mapping answers 404 for its hash, and
// re-registering the mapping there with the same envelope returns the
// same hash and then serves the same solution bytes.
func TestReRegisterOn404(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	facts := readTestdata(t, "employment.facts")
	env, err := json.Marshal(registerRequest{Mapping: mapping, Options: requestOptions{Norm: "naive", Coalesce: true}})
	if err != nil {
		t.Fatal(err)
	}
	registerEnv := func(h http.Handler) string {
		t.Helper()
		rec := do(h, "POST", "/v1/mappings", "application/json", string(env))
		if rec.Code != http.StatusCreated {
			t.Fatalf("register: status %d: %s", rec.Code, rec.Body)
		}
		var resp registerResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Hash
	}
	a := mustNew(t, Config{}).Handler()
	b := mustNew(t, Config{}).Handler()

	hash := registerEnv(a)
	if rec := do(b, "POST", "/v1/exchanges/"+hash+"/run", "", facts); rec.Code != http.StatusNotFound {
		t.Fatalf("unregistered hash on B: status %d: %s", rec.Code, rec.Body)
	}
	if got := registerEnv(b); got != hash {
		t.Fatalf("re-registering on B returned hash %s, A's is %s", got, hash)
	}
	solA := runSolution(t, a, hash, facts)
	solB := runSolution(t, b, hash, facts)
	if !bytes.Equal(solA, solB) {
		t.Fatalf("B's solution differs from A's:\n%s\nvs\n%s", solB, solA)
	}
	wantHash, want := directSolution(t, mapping, facts, tdx.WithNorm(tdx.NormNaive), tdx.WithCoalesce(true))
	if hash != wantHash || !bytes.Equal(solB, want) {
		t.Fatalf("served exchange differs from the direct run (hash %s vs %s)", hash, wantHash)
	}
}

func TestRunQueryAndAnswer(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	mapping := readTestdata(t, "employment.tdx")
	facts := readTestdata(t, "employment.facts")
	hash := register(t, h, mapping)

	ex := tdx.MustCompile(mapping)
	src, err := ex.ParseSource(facts)
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := ex.Answer(context.Background(), src, "q")
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := wantAns.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, wantJSON); err != nil {
		t.Fatal(err)
	}

	// /run?query= returns the solution plus the answers.
	rec := do(h, "POST", "/v1/exchanges/"+hash+"/run?query=q", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("run?query: status %d: %s", rec.Code, rec.Body)
	}
	var run struct {
		Solution json.RawMessage `json:"solution"`
		Answers  json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &run); err != nil {
		t.Fatal(err)
	}
	if len(run.Solution) == 0 || !bytes.Equal(run.Answers, want.Bytes()) {
		t.Fatalf("run?query answers:\n%s\nvs\n%s", run.Answers, want.Bytes())
	}

	// /answer with the declared query's name.
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/answer?query=q", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("answer: status %d: %s", rec.Code, rec.Body)
	}
	var ans struct {
		Answers json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ans); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ans.Answers, want.Bytes()) {
		t.Fatalf("answer endpoint:\n%s\nvs\n%s", ans.Answers, want.Bytes())
	}

	// /answer with no ?query=: the mapping declares exactly one query, so
	// it is used.
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/answer", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("answer default: status %d: %s", rec.Code, rec.Body)
	}

	// An inline query in rule syntax.
	inline := "query who(n) :- Emp(n, \"IBM\", s)"
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/answer?query="+urlQueryEscape(inline), "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("inline answer: status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "who") {
		t.Fatalf("inline answer body: %s", rec.Body)
	}

	// An unknown query name is the client's error.
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/answer?query=nope", "", facts)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown query: status %d: %s", rec.Code, rec.Body)
	}
}

// TestTemporalSnapshot is the §7 acceptance leg: a temporal mapping
// registers, runs through the temporal chase, and /snapshot?at= returns
// the same abstract snapshot as the direct API.
func TestTemporalSnapshot(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	mapping := readTestdata(t, "phd.tdx")
	facts := readTestdata(t, "phd.facts")
	hash := register(t, h, mapping)

	ex := tdx.MustCompile(mapping)
	src, err := ex.ParseSource(facts)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	at, err := tdx.ParseTime("2017")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ex.Snapshot(context.Background(), sol, at)
	if err != nil {
		t.Fatal(err)
	}
	// The expected facts array, built independently of the streaming
	// writer the handler uses.
	wantWire := make([]snapshotFact, len(snap.Facts()))
	for i, f := range snap.Facts() {
		args := make([]string, len(f.Args))
		for j, a := range f.Args {
			args[j] = a.String()
		}
		wantWire[i] = snapshotFact{Rel: f.Rel, Args: args}
	}
	wantFacts, err := json.Marshal(wantWire)
	if err != nil {
		t.Fatal(err)
	}

	rec := do(h, "POST", "/v1/exchanges/"+hash+"/snapshot?at=2017", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		At        string          `json:"at"`
		Facts     json.RawMessage `json:"facts"`
		Rendering string          `json:"rendering"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.At != "2017" {
		t.Fatalf("snapshot at: %q", resp.At)
	}
	if !bytes.Equal(resp.Facts, wantFacts) {
		t.Fatalf("snapshot facts differ:\n%s\nvs\n%s", resp.Facts, wantFacts)
	}
	if resp.Rendering != snap.String() {
		t.Fatalf("snapshot rendering differs:\n%s\nvs\n%s", resp.Rendering, snap.String())
	}
	// The run must have gone through the temporal chase: Alumni holds at
	// every point strictly after the 2016 graduation snapshot.
	if !strings.Contains(resp.Rendering, "Alumni(ada") {
		t.Fatalf("snapshot rendering missing temporal witness: %s", resp.Rendering)
	}

	// /run on the temporal mapping works too (dispatches transparently).
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/run", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("temporal run: status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "PhDCan") {
		t.Fatalf("temporal run body: %s", rec.Body)
	}

	// A missing or malformed ?at= is a 400.
	if rec := do(h, "POST", "/v1/exchanges/"+hash+"/snapshot", "", facts); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing at: status %d", rec.Code)
	}
	if rec := do(h, "POST", "/v1/exchanges/"+hash+"/snapshot?at=bogus", "", facts); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad at: status %d", rec.Code)
	}
}

// TestTimeoutReturns504 is the acceptance criterion's failure leg: an
// exceeded ?timeout= returns 504 promptly, and the registry entry keeps
// serving afterwards.
func TestTimeoutReturns504(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")

	started := time.Now()
	rec := do(h, "POST", "/v1/exchanges/"+hash+"/run?timeout=1ns", "", facts)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("exceeded timeout: status %d: %s", rec.Code, rec.Body)
	}
	if elapsed := time.Since(started); elapsed > 5*time.Second {
		t.Fatalf("504 took %v; cancellation must be prompt", elapsed)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != http.StatusGatewayTimeout || !strings.Contains(e.Error, "deadline") {
		t.Fatalf("504 body: %+v", e)
	}

	// The registry entry is not corrupted: the next request succeeds and
	// produces the full solution.
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/run", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("run after timeout: status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "Emp") {
		t.Fatalf("run after timeout returned no facts: %s", rec.Body)
	}

	// An over-cap timeout is clamped, not rejected.
	rec = do(h, "POST", "/v1/exchanges/"+hash+"/run?timeout=1000h", "", facts)
	if rec.Code != http.StatusOK {
		t.Fatalf("clamped timeout: status %d: %s", rec.Code, rec.Body)
	}
}

func TestErrorMapping(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")

	cases := []struct {
		name   string
		rec    *httptest.ResponseRecorder
		status int
	}{
		{"unknown hash", do(h, "POST", "/v1/exchanges/feedbeef/run", "", facts), http.StatusNotFound},
		{"bad mapping", do(h, "POST", "/v1/mappings", "", "this is not a mapping"), http.StatusBadRequest},
		{"empty mapping", do(h, "POST", "/v1/mappings", "", "   "), http.StatusBadRequest},
		{"bad register envelope", do(h, "POST", "/v1/mappings", "application/json", `{"mapping": 7}`), http.StatusBadRequest},
		{"unknown envelope field", do(h, "POST", "/v1/mappings", "application/json", `{"maping": "x"}`), http.StatusBadRequest},
		{"bad option", do(h, "POST", "/v1/mappings", "application/json", `{"mapping": "source schema { E(a) }\ntarget schema { T(a) }\ntgd t: E(a) -> T(a)", "options": {"norm": "bogus"}}`), http.StatusBadRequest},
		{"bad facts", do(h, "POST", "/v1/exchanges/"+hash+"/run", "", "E(Ada) @ [1,2)"), http.StatusBadRequest},
		{"empty body", do(h, "POST", "/v1/exchanges/"+hash+"/run", "", ""), http.StatusBadRequest},
		{"blank body", do(h, "POST", "/v1/exchanges/"+hash+"/run", "", " \n\t "), http.StatusBadRequest},
		{"bad json source", do(h, "POST", "/v1/exchanges/"+hash+"/run", "application/json", `{"facts":[{"rel":"E","args":["a"],"interval":"[1,2)"}]}`), http.StatusBadRequest},
		{"bad timeout", do(h, "POST", "/v1/exchanges/"+hash+"/run?timeout=-5s", "", facts), http.StatusBadRequest},
		{"bad norm", do(h, "POST", "/v1/exchanges/"+hash+"/run?norm=bogus", "", facts), http.StatusBadRequest},
		{"bad egd", do(h, "POST", "/v1/exchanges/"+hash+"/run?egd=bogus", "", facts), http.StatusBadRequest},
		{"bad coalesce", do(h, "POST", "/v1/exchanges/"+hash+"/run?coalesce=maybe", "", facts), http.StatusBadRequest},
		// Two overlapping salaries for one (name, company): the key egd
		// equates the constants 18k and 20k — no solution exists.
		{"no solution", do(h, "POST", "/v1/exchanges/"+hash+"/run", "",
			"E(Ada, IBM) @ [2012, 2014)\nS(Ada, 18k) @ [2012, 2014)\nS(Ada, 20k) @ [2012, 2014)\n"), http.StatusUnprocessableEntity},
	}
	for _, c := range cases {
		if c.rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, c.rec.Code, c.status, c.rec.Body)
		}
		var e errorResponse
		if err := json.Unmarshal(c.rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: error body is not the errorResponse form: %s", c.name, c.rec.Body)
			continue
		}
		if e.Error == "" || e.Status != c.status {
			t.Errorf("%s: error body %+v", c.name, e)
		}
		if strings.HasSuffix(c.name, " body") && !strings.Contains(e.Error, "source body is empty") {
			t.Errorf("%s: error %q does not name the empty body", c.name, e.Error)
		}
	}
}

func TestHealthz(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	register(t, h, readTestdata(t, "employment.tdx"))
	rec := do(h, "GET", "/healthz", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var resp healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "ok" || resp.Mappings != 1 || resp.Compiles != 1 {
		t.Fatalf("healthz: %+v", resp)
	}
}

// TestLRUEviction: the registry drops the least recently used exchange
// when the bound is hit; evicted hashes 404 and re-register transparently.
func TestLRUEviction(t *testing.T) {
	var compiles atomic.Int64
	s := mustNew(t, Config{
		MaxMappings: 2,
		Compile: func(mapping string, opts ...tdx.Option) (*tdx.Exchange, error) {
			compiles.Add(1)
			return tdx.Compile(mapping, opts...)
		},
	})
	h := s.Handler()
	base := readTestdata(t, "employment.tdx")
	variant := func(i int) string {
		return strings.ReplaceAll(base, "tgd sigma1:", fmt.Sprintf("tgd sigma1v%d:", i))
	}
	h1 := register(t, h, variant(1))
	h2 := register(t, h, variant(2))
	h3 := register(t, h, variant(3)) // evicts h1
	if got := compiles.Load(); got != 3 {
		t.Fatalf("compiles = %d, want 3", got)
	}
	if s.Registry().Len() != 2 || s.Registry().Evicted() != 1 {
		t.Fatalf("registry: len=%d evicted=%d", s.Registry().Len(), s.Registry().Evicted())
	}
	facts := readTestdata(t, "employment.facts")
	if rec := do(h, "POST", "/v1/exchanges/"+h1+"/run", "", facts); rec.Code != http.StatusNotFound {
		t.Fatalf("evicted hash: status %d", rec.Code)
	}
	for _, alive := range []string{h2, h3} {
		if rec := do(h, "POST", "/v1/exchanges/"+alive+"/run", "", facts); rec.Code != http.StatusOK {
			t.Fatalf("resident hash %s: status %d: %s", alive, rec.Code, rec.Body)
		}
	}
	// Re-registering the evicted text recompiles (the raw-key index was
	// dropped with the entry) and restores service under the same hash.
	if got := register(t, h, variant(1)); got != h1 {
		t.Fatalf("re-register changed hash: %s vs %s", got, h1)
	}
	if got := compiles.Load(); got != 4 {
		t.Fatalf("compiles after re-register = %d, want 4", got)
	}
	if rec := do(h, "POST", "/v1/exchanges/"+h1+"/run", "", facts); rec.Code != http.StatusOK {
		t.Fatalf("re-registered hash: status %d", rec.Code)
	}
}

// TestConcurrentRegisterAndRun is the satellite concurrency test: 16
// goroutines registering the same mapping burst-compile exactly once
// (singleflight), while other goroutines keep running requests against a
// warm entry. Run under -race in CI.
func TestConcurrentRegisterAndRun(t *testing.T) {
	var compiles atomic.Int64
	s := mustNew(t, Config{
		Compile: func(mapping string, opts ...tdx.Option) (*tdx.Exchange, error) {
			compiles.Add(1)
			// Widen the race window so the burst really overlaps one
			// compilation.
			time.Sleep(20 * time.Millisecond)
			return tdx.Compile(mapping, opts...)
		},
	})
	h := s.Handler()
	warmHash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")
	burst := readTestdata(t, "phd.tdx")
	phdFacts := readTestdata(t, "phd.facts")

	const registrars = 16
	const runners = 8
	hashes := make([]string, registrars)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < registrars; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			rec := do(h, "POST", "/v1/mappings", "", burst)
			if rec.Code != http.StatusCreated && rec.Code != http.StatusOK {
				t.Errorf("registrar %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
			var resp registerResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Errorf("registrar %d: %v", i, err)
				return
			}
			hashes[i] = resp.Hash
		}(i)
	}
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			for j := 0; j < 4; j++ {
				rec := do(h, "POST", "/v1/exchanges/"+warmHash+"/run", "", facts)
				if rec.Code != http.StatusOK {
					t.Errorf("runner %d.%d: status %d: %s", i, j, rec.Code, rec.Body)
					return
				}
			}
		}(i)
	}
	close(start)
	wg.Wait()

	// Exactly two compiles total: the warm entry plus ONE for the
	// 16-strong burst.
	if got := compiles.Load(); got != 2 {
		t.Fatalf("compiles = %d, want 2 (registration burst must singleflight)", got)
	}
	for i, h := range hashes {
		if h != hashes[0] {
			t.Fatalf("registrar %d got hash %s, others %s", i, h, hashes[0])
		}
	}
	// And the burst entry serves.
	if rec := do(h, "POST", "/v1/exchanges/"+hashes[0]+"/run", "", phdFacts); rec.Code != http.StatusOK {
		t.Fatalf("burst entry run: status %d: %s", rec.Code, rec.Body)
	}
}

// urlQueryEscape is a minimal query escaper for test URLs.
func urlQueryEscape(s string) string {
	r := strings.NewReplacer(" ", "%20", "\"", "%22", ":", "%3A", ",", "%2C", "(", "%28", ")", "%29", "-", "%2D")
	return r.Replace(s)
}

// TestBadQueryCostsNoChase: an invalid ?query= is rejected up front on
// both /run and /answer — before the body is decoded or a chase runs —
// so a tiny bad request cannot buy MaxTimeout worth of server CPU.
func TestBadQueryCostsNoChase(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))

	// The body is deliberately garbage: pre-run validation must reject
	// the query before ever looking at it.
	for _, target := range []string{
		"/v1/exchanges/" + hash + "/run?query=nope",
		"/v1/exchanges/" + hash + "/answer?query=nope",
	} {
		rec := do(h, "POST", target, "", "not a fact file at all")
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d: %s", target, rec.Code, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), "nope") {
			t.Fatalf("%s: error does not name the query: %s", target, rec.Body)
		}
	}
}

// TestBudgetCoversWholePipeline: ?timeout= bounds /answer and /snapshot
// end to end (run + evaluation), not just the chase.
func TestBudgetCoversWholePipeline(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")

	for _, target := range []string{
		"/v1/exchanges/" + hash + "/answer?query=q&timeout=1ns",
		"/v1/exchanges/" + hash + "/snapshot?at=2013&timeout=1ns",
		"/v1/exchanges/" + hash + "/run?query=q&timeout=1ns",
	} {
		rec := do(h, "POST", target, "", facts)
		if rec.Code != http.StatusGatewayTimeout {
			t.Fatalf("%s: status %d, want 504: %s", target, rec.Code, rec.Body)
		}
	}
}

// TestOversizeBodyIs413: a body beyond MaxBodyBytes maps to 413, not a
// generic 400, on both the register and run paths.
func TestOversizeBodyIs413(t *testing.T) {
	s := mustNew(t, Config{MaxBodyBytes: 64})
	h := s.Handler()
	big := strings.Repeat("E(Ada, IBM) @ [2012, 2014)\n", 64)

	if rec := do(h, "POST", "/v1/mappings", "", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("register oversize: status %d: %s", rec.Code, rec.Body)
	}
	// For the run path, register a (small enough) mapping first.
	s2 := mustNew(t, Config{MaxBodyBytes: 700})
	h2 := s2.Handler()
	hash := register(t, h2, readTestdata(t, "employment.tdx"))
	if rec := do(h2, "POST", "/v1/exchanges/"+hash+"/run", "", big); rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("run oversize: status %d: %s", rec.Code, rec.Body)
	}
}

// TestTrickledBodyBudget: the body is read under the request budget, so
// a client trickling it over a real connection gets its 504 when
// ?timeout= lapses, not once the whole body has arrived.
func TestTrickledBodyBudget(t *testing.T) {
	s := mustNew(t, Config{})
	hash := register(t, s.Handler(), readTestdata(t, "employment.tdx"))
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

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
	req, err := http.NewRequest("POST", ts.URL+"/v1/exchanges/"+hash+"/run?timeout=300ms", pr)
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
}

// TestRegisterBudget504: POST /v1/mappings is budget-bounded like every
// other endpoint; a compile outlasting the budget 504s, finishes
// detached, and serves the retry from cache.
func TestRegisterBudget504(t *testing.T) {
	var compiles atomic.Int64
	s := mustNew(t, Config{
		MaxTimeout: 20 * time.Millisecond,
		Compile: func(mapping string, opts ...tdx.Option) (*tdx.Exchange, error) {
			compiles.Add(1)
			time.Sleep(150 * time.Millisecond)
			return tdx.Compile(mapping, opts...)
		},
	})
	h := s.Handler()
	text := readTestdata(t, "employment.tdx")

	rec := do(h, "POST", "/v1/mappings", "", text)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("slow register: status %d: %s", rec.Code, rec.Body)
	}
	// Wait out the detached compile, then retry: cached, one compile.
	deadline := time.Now().Add(2 * time.Second)
	for s.Registry().Len() == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	rec = do(h, "POST", "/v1/mappings", "", text)
	if rec.Code != http.StatusOK {
		t.Fatalf("retry: status %d: %s", rec.Code, rec.Body)
	}
	var resp registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatalf("retry not served from the detached compile: %+v", resp)
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiles = %d, want 1", got)
	}
}

// TestRegisterRejectsTrailingEnvelope: a concatenated second JSON
// envelope errors instead of being silently dropped.
func TestRegisterRejectsTrailingEnvelope(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	env, _ := json.Marshal(registerRequest{Mapping: readTestdata(t, "employment.tdx")})
	rec := do(h, "POST", "/v1/mappings", "application/json", string(env)+string(env))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("concatenated envelopes: status %d: %s", rec.Code, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "trailing") {
		t.Fatalf("error does not name the trailing data: %s", rec.Body)
	}
}
