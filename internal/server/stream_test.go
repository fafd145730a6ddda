package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	tdx "repro"
	"repro/internal/fact"
	"repro/internal/instance"
	"repro/internal/interval"
	"repro/internal/schema"
	"repro/internal/value"
)

// TestWriteFramedIdentity is the framing contract: writeFramed emits
// one line of valid JSON ending in a newline, carrying the head's fields
// and then each tail field, and every tail is byte-identical to its
// document encoded on its own.
func TestWriteFramedIdentity(t *testing.T) {
	s := mustNew(t, Config{})
	ex := tdx.MustCompile(readTestdata(t, "employment.tdx"))
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(t.Context(), src)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ex.Query(t.Context(), sol, "q")
	if err != nil {
		t.Fatal(err)
	}
	head := runResponse{Hash: "h", Stats: sol.Stats(), ElapsedMs: 1.5}
	tails := []tailDoc{
		{name: "solution", stream: instanceDoc(&sol.Instance)},
		{name: "answers", stream: instanceDoc(ans)},
	}

	rec := httptest.NewRecorder()
	s.writeFramed(rec, http.StatusOK, head, tails)
	body := rec.Body.Bytes()
	if rec.Code != http.StatusOK || rec.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("status %d, content type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if bytes.Count(body, []byte("\n")) != 1 || body[len(body)-1] != '\n' {
		t.Fatalf("framed document is not one newline-terminated line:\n%s", body)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("framed document is not valid JSON: %v\n%s", err, body)
	}
	for _, key := range []string{"hash", "stats", "elapsedMs", "solution", "answers"} {
		if _, ok := doc[key]; !ok {
			t.Fatalf("framed document misses %q: %s", key, body)
		}
	}
	for key, inst := range map[string]*tdx.Instance{"solution": &sol.Instance, "answers": ans} {
		if want := compactDoc(t, inst); !bytes.Equal(doc[key], want) {
			t.Fatalf("framed %s differs from its standalone document:\n%s\nvs\n%s", key, doc[key], want)
		}
	}
}

// compactDoc renders an instance's TDX JSON document compacted, the way
// the wire carries it.
func compactDoc(t *testing.T, inst *tdx.Instance) []byte {
	t.Helper()
	data, err := inst.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := json.Compact(&out, data); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestFramingOverRealListener checks the one response path over a real
// socket: a document that fits net/http's 2 KB pre-chunking buffer still
// goes out with a Content-Length, a larger one arrives chunked, and both
// carry the direct engine run's documents.
func TestFramingOverRealListener(t *testing.T) {
	mapping := readTestdata(t, "employment.tdx")
	small := readTestdata(t, "employment.facts")
	var big strings.Builder
	for i := 0; i < 100; i++ {
		fmt.Fprintf(&big, "E(p%d, IBM) @ [2012, 2014)\nS(p%d, %dk) @ [2013, inf)\n", i, i, 10+i)
	}
	ex := tdx.MustCompile(mapping)
	src, err := ex.ParseSource(small)
	if err != nil {
		t.Fatal(err)
	}
	wantAns, err := ex.Answer(t.Context(), src, "q")
	if err != nil {
		t.Fatal(err)
	}
	_, wantSol := directSolution(t, mapping, big.String())

	ts := httptest.NewServer(mustNew(t, Config{}).Handler())
	defer ts.Close()
	post := func(path, body string) (*http.Response, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode/100 != 2 {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, data)
		}
		if resp.ContentLength >= 0 && resp.ContentLength != int64(len(data)) {
			t.Fatalf("%s: Content-Length %d, body %d bytes", path, resp.ContentLength, len(data))
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v\n%s", path, err, data)
		}
		return resp, doc
	}
	post("/v1/mappings", mapping)
	hash := ex.Fingerprint()

	resp, doc := post("/v1/exchanges/"+hash+"/answer?query=q", small)
	if resp.ContentLength < 0 || len(resp.TransferEncoding) != 0 {
		t.Fatalf("small /answer: Content-Length %d, Transfer-Encoding %q; want a Content-Length", resp.ContentLength, resp.TransferEncoding)
	}
	if !bytes.Equal(doc["answers"], compactDoc(t, wantAns)) {
		t.Fatalf("small /answer differs from the direct run:\n%s", doc["answers"])
	}

	resp, doc = post("/v1/exchanges/"+hash+"/run", big.String())
	if resp.ContentLength != -1 || len(resp.TransferEncoding) != 1 || resp.TransferEncoding[0] != "chunked" {
		t.Fatalf("large /run: Content-Length %d, Transfer-Encoding %q; want chunked", resp.ContentLength, resp.TransferEncoding)
	}
	if !bytes.Equal(doc["solution"], wantSol) {
		t.Fatalf("large /run differs from the direct run:\n%s", doc["solution"])
	}
}

// TestAdmissionGateConcurrency is the burst criterion: 16 concurrent
// requests against -max-inflight 2 run exactly two chases at a time.
// The onChase seam forms rendezvous pairs — each admitted chase blocks
// until a second one is admitted alongside it — so the test deadlocks
// (and times out) if the gate ever admits fewer than two concurrently,
// and the high-water mark convicts it if it ever admits more.
func TestAdmissionGateConcurrency(t *testing.T) {
	s := mustNew(t, Config{MaxInflight: 2, QueueWait: time.Minute})
	rendezvous := make(chan chan struct{})
	s.onChase = func() {
		me := make(chan struct{})
		select {
		case rendezvous <- me: // first of a pair: wait to be released
			<-me
		case other := <-rendezvous: // second: release both
			close(other)
		}
	}
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")

	const burst = 16
	var wg sync.WaitGroup
	codes := make([]int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i] = do(h, "POST", "/v1/exchanges/"+hash+"/run", "", facts).Code
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("burst request %d: status %d", i, code)
		}
	}
	if hw := s.gate.highWater.Load(); hw != 2 {
		t.Fatalf("high-water concurrency = %d, want exactly 2", hw)
	}
	if inflight := s.gate.inflight.Load(); inflight != 0 {
		t.Fatalf("inflight = %d after the burst drained", inflight)
	}
	if rejected := s.gate.rejected.Load(); rejected != 0 {
		t.Fatalf("rejected = %d; the queue wait was a minute", rejected)
	}
}

// TestAdmissionGateRejects is the overload criterion: with one slot
// held and a tiny queue budget, the next chase queues (visible on
// /healthz) and then gets 429; the slot holder still finishes 200.
func TestAdmissionGateRejects(t *testing.T) {
	s := mustNew(t, Config{MaxInflight: 1, QueueWait: 30 * time.Millisecond})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.onChase = func() {
		entered <- struct{}{}
		<-release
	}
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	facts := readTestdata(t, "employment.facts")

	holder := make(chan int, 1)
	go func() {
		holder <- do(h, "POST", "/v1/exchanges/"+hash+"/run", "", facts).Code
	}()
	<-entered // the slot is now held inside the chase

	health := func() healthResponse {
		t.Helper()
		rec := do(h, "GET", "/healthz", "", "")
		var hr healthResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
			t.Fatalf("healthz: %v", err)
		}
		return hr
	}
	if hr := health(); hr.Inflight != 1 {
		t.Fatalf("healthz inflight = %d with a chase blocked in flight", hr.Inflight)
	}

	// The second chase outwaits the 30ms budget and is turned away.
	rec := do(h, "POST", "/v1/exchanges/"+hash+"/run", "", facts)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-limit chase: status %d, want 429: %s", rec.Code, rec.Body)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Status != http.StatusTooManyRequests || !strings.Contains(e.Error, "retry") {
		t.Fatalf("429 body: %+v", e)
	}

	close(release)
	if code := <-holder; code != http.StatusOK {
		t.Fatalf("slot holder: status %d", code)
	}
	hr := health()
	if hr.Inflight != 0 || hr.Queued != 0 || hr.Rejected != 1 || hr.InflightHighWater != 1 {
		t.Fatalf("healthz gauges after overload: %+v", hr)
	}
}

// TestMetricsEndpoint: /metrics speaks the Prometheus text format —
// every line is a # HELP/# TYPE comment or a `name value` sample — and
// carries the compile counter the CI smoke greps for, the source cache's
// size and the runtime's heap and GC series, whose counters never fall.
func TestMetricsEndpoint(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	if rec := do(h, "POST", "/v1/exchanges/"+hash+"/run", "", readTestdata(t, "employment.facts")); rec.Code != http.StatusOK {
		t.Fatalf("run: status %d", rec.Code)
	}

	samples := scrapeMetrics(t, h)
	for name, want := range map[string]string{
		"tdxd_compiles_total":        "1",
		"tdxd_mappings":              "1",
		"tdxd_inflight_chases":       "0",
		"tdxd_rejected_chases_total": "0",
		"tdxd_source_cache_entries":  "1",
	} {
		if got := samples[name]; got != want {
			t.Fatalf("metric %s = %q, want %q\n%v", name, got, want, samples)
		}
	}
	// Requests served so far: register + run (the /metrics request itself
	// is counted after its response is written).
	if got := samples["tdxd_requests_total"]; got != "2" {
		t.Fatalf("tdxd_requests_total = %q, want 2", got)
	}
	for _, g := range goMetrics {
		if _, err := strconv.ParseFloat(samples[g.name], 64); err != nil {
			t.Fatalf("runtime series %s: %v\n%v", g.name, err, samples)
		}
	}
	runtime.GC()
	again := scrapeMetrics(t, h)
	for _, name := range []string{"tdxd_go_heap_allocs_bytes_total", "tdxd_go_gc_cycles_total", "tdxd_go_gc_cpu_seconds_total"} {
		before, _ := strconv.ParseFloat(samples[name], 64)
		after, _ := strconv.ParseFloat(again[name], 64)
		if after < before {
			t.Fatalf("counter %s fell from %v to %v", name, before, after)
		}
	}
	if again["tdxd_go_gc_cycles_total"] == samples["tdxd_go_gc_cycles_total"] {
		t.Fatalf("tdxd_go_gc_cycles_total stayed %s across a forced GC", again["tdxd_go_gc_cycles_total"])
	}
}

// scrapeMetrics GETs /metrics and returns its samples by name, failing
// on any line that is neither a comment nor a `name value` sample.
func scrapeMetrics(t *testing.T, h http.Handler) map[string]string {
	t.Helper()
	rec := do(h, "GET", "/metrics", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type: %q", ct)
	}
	samples := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || name == "" || val == "" {
			t.Fatalf("metrics line is neither comment nor sample: %q", line)
		}
		samples[name] = val
	}
	return samples
}

// TestAccessLog: with AccessLogf set, every request produces one
// structured line naming method, path, status, and byte count.
func TestAccessLog(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	s := mustNew(t, Config{AccessLogf: func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}})
	h := s.Handler()
	do(h, "GET", "/healthz", "", "")
	do(h, "POST", "/v1/mappings", "", "not a mapping")
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("access log lines = %d, want 2: %q", len(lines), lines)
	}
	if !strings.Contains(lines[0], "method=GET") || !strings.Contains(lines[0], "path=/healthz") || !strings.Contains(lines[0], "status=200") {
		t.Fatalf("healthz access line: %q", lines[0])
	}
	if !strings.Contains(lines[1], "status=400") || !strings.Contains(lines[1], "bytes=") {
		t.Fatalf("register access line: %q", lines[1])
	}
	if got := s.requests.Load(); got != 2 {
		t.Fatalf("request counter = %d, want 2", got)
	}
}

// bigSolutionInstance builds a frozen n-fact instance shaped like a
// chased solution, for serve-path measurements that must not pay for a
// chase per iteration.
func bigSolutionInstance(n int) *tdx.Instance {
	sch := schema.MustNew(
		schema.MustRelation("Emp", "name", "company", "salary"),
		schema.MustRelation("Proj", "name", "project"),
	)
	c := instance.NewConcrete(sch)
	for i := 0; c.Len() < n; i++ {
		iv := interval.Interval{Start: interval.Time(i % 100), End: interval.Time(i%100 + 3)}
		name := value.NewConst(fmt.Sprintf("person-%d", i))
		if i%3 == 0 {
			c.MustInsert(fact.NewC("Proj", iv, name, value.NewAnnNull(uint64(i%50), iv)))
		} else {
			c.MustInsert(fact.NewC("Emp", iv, name,
				value.NewConst(fmt.Sprintf("company-%d", i%37)),
				value.NewConst(fmt.Sprintf("%dk", 10+i%90))))
		}
	}
	c.Freeze()
	return tdx.NewInstance(c)
}

// discardResponseWriter counts bytes and drops them — the serve-path
// equivalent of io.Discard, so allocation measurements see only the
// server's own staging, not a recorder's growing buffer.
type discardResponseWriter struct {
	h http.Header
	n int64
}

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponseWriter) WriteHeader(int) {}
func (d *discardResponseWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// TestStreamedRunHoldsNoSolutionBuffer is the O(rows)-free serving
// claim: streaming a 10k-fact solution response allocates a small
// constant — if the path staged the document (or the fact set), the
// count would be O(n). Skipped under the race detector, whose
// instrumentation inflates allocation counts.
func TestStreamedRunHoldsNoSolutionBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	s := mustNew(t, Config{})
	inst := bigSolutionInstance(10_000)
	head := runResponse{Hash: "h"}
	tails := []tailDoc{{name: "solution", stream: instanceDoc(inst)}}
	w := &discardResponseWriter{}
	w.Header() // pre-build outside the measured region
	allocs := testing.AllocsPerRun(5, func() {
		s.writeFramed(w, http.StatusOK, head, tails)
	})
	if allocs > 96 {
		t.Fatalf("streamed 10k-fact response allocated %v times; want a small constant", allocs)
	}
}

// BenchmarkServerRunStream isolates the serve path — framing and
// streaming a finished solution through the response writer — at
// 1k/10k/100k facts. allocs/op and B/op are O(1) in the fact count.
func BenchmarkServerRunStream(b *testing.B) {
	s := mustNew(b, Config{})
	for _, n := range []int{1_000, 10_000, 100_000} {
		inst := bigSolutionInstance(n)
		head := runResponse{Hash: "h"}
		tails := []tailDoc{{name: "solution", stream: instanceDoc(inst)}}
		b.Run(fmt.Sprintf("%dk", n/1000), func(b *testing.B) {
			w := &discardResponseWriter{}
			w.Header()
			s.writeFramed(w, http.StatusOK, head, tails) // size probe
			b.SetBytes(w.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.writeFramed(w, http.StatusOK, head, tails)
			}
		})
	}
}
