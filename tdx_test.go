package tdx

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestCompileOnceRunConcurrently is the compile-once/run-many contract:
// one compiled Exchange shared by many goroutines, each chasing its own
// source instance, must race-cleanly (run under -race in CI) produce the
// same solution as a sequential run.
func TestCompileOnceRunConcurrently(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	facts := readTestdata(t, "employment.facts")

	ref, err := ex.ParseSource(facts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ex.Run(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	// Compare via the rendered form: an Instance is not safe for
	// concurrent use (even reads fill lazy caches), so goroutines must
	// not probe the shared reference instance directly.
	wantStr := want.String()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Each goroutine parses its own source: instances are
			// per-run, the Exchange (and its interner) is shared.
			src, err := ex.ParseSource(facts)
			if err != nil {
				errs[g] = err
				return
			}
			sol, err := ex.Run(ctx, src)
			if err != nil {
				errs[g] = err
				return
			}
			if got := sol.String(); got != wantStr {
				errs[g] = errors.New("concurrent solution differs from sequential reference:\n" + got)
				return
			}
			ans, err := ex.Query(ctx, sol, "q")
			if err != nil {
				errs[g] = err
				return
			}
			if ans.Len() != 2 {
				errs[g] = errors.New("concurrent answers wrong:\n" + ans.String())
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// slowExchange returns an exchange and source big enough that a full run
// takes tens of milliseconds — room to cancel mid-flight.
func slowExchange(t *testing.T) (*Exchange, *Instance) {
	t.Helper()
	ex, err := FromMapping(workload.EgdStressMapping(8))
	if err != nil {
		t.Fatal(err)
	}
	return ex, NewInstance(workload.EgdStress(120, 8))
}

// TestRunCanceledBeforeStart: an already-canceled context fails
// immediately with context.Canceled, before any chase work.
func TestRunCanceledBeforeStart(t *testing.T) {
	ex, src := slowExchange(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Run(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run on canceled ctx: %v", err)
	}
}

// TestRunCanceledMidChase cancels a deliberately slow chase mid-run: Run
// must return context.Canceled promptly and the caller's source instance
// must be unmutated.
func TestRunCanceledMidChase(t *testing.T) {
	ex, src := slowExchange(t)
	before := src.Clone()

	// Calibrate: a full run takes this long uncanceled.
	full := time.Now()
	if _, err := ex.Run(context.Background(), src); err != nil {
		t.Fatal(err)
	}
	fullDur := time.Since(full)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := ex.Run(ctx, src)
		done <- err
	}()
	// Cancel while the chase is in flight (a fraction of the full run).
	time.Sleep(fullDur / 10)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return promptly after cancellation")
	}
	elapsed := time.Since(start)
	// "Promptly": the canceled run must not take as long as a full run
	// would. Generous bound to stay robust on loaded CI machines.
	if elapsed > fullDur*2+time.Second {
		t.Fatalf("canceled run took %v (full run: %v)", elapsed, fullDur)
	}
	if !src.Equal(before) {
		t.Fatal("cancellation mutated the caller's source instance")
	}
}

// TestRunDeadline: a deadline in the past behaves like cancellation with
// context.DeadlineExceeded.
func TestRunDeadline(t *testing.T) {
	ex, src := slowExchange(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	if _, err := ex.Run(ctx, src); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Run past deadline: %v", err)
	}
}

// TestQueryAndAnswerCanceled: the query surfaces respect cancellation
// too (their normalization and evaluation loops check the context).
func TestQueryAndAnswerCanceled(t *testing.T) {
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ex.Query(ctx, sol, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Query on canceled ctx: %v", err)
	}
	if _, err := ex.Answer(ctx, src, "q"); !errors.Is(err, context.Canceled) {
		t.Fatalf("Answer on canceled ctx: %v", err)
	}
	if _, err := ex.Normalize(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("Normalize on canceled ctx: %v", err)
	}
	if _, err := ex.Snapshot(ctx, sol, 2013); !errors.Is(err, context.Canceled) {
		t.Fatalf("Snapshot on canceled ctx: %v", err)
	}
	if _, _, err := ex.RunAbstract(ctx, src); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAbstract on canceled ctx: %v", err)
	}
}

// TestEmploymentJSONMatchesFacts: testdata/employment.json, the five
// facts of employment.facts in the same order, decodes to a source whose
// solution is byte-identical to the fact text's, null numbering
// included, since both insert in the same order.
func TestEmploymentJSONMatchesFacts(t *testing.T) {
	ex := compileTestdata(t, "employment.tdx")
	fromText, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	fromJSON, err := ex.DecodeSourceJSON(strings.NewReader(readTestdata(t, "employment.json")))
	if err != nil {
		t.Fatal(err)
	}
	var docs [2][]byte
	for i, src := range []*Instance{fromText, fromJSON} {
		sol, err := ex.Run(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if docs[i], err = sol.JSON(); err != nil {
			t.Fatal(err)
		}
	}
	if string(docs[0]) != string(docs[1]) {
		t.Fatalf("JSON source's solution differs from the fact text's:\n%s\nvs\n%s", docs[1], docs[0])
	}
}

// TestNilContextMeansBackground: a nil ctx is tolerated and never
// cancels.
func TestNilContextMeansBackground(t *testing.T) {
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	//lint:ignore SA1012 deliberate: the API tolerates nil contexts.
	sol, err := ex.Run(nil, src) //nolint:staticcheck
	if err != nil || sol.Len() != 5 {
		t.Fatalf("nil-ctx Run: %v", err)
	}
}

// TestCompileErrors: compile-time validation catches bad mappings and
// bad queries once, not at run time.
func TestCompileErrors(t *testing.T) {
	for name, text := range map[string]string{
		"parse error":   "source schema {",
		"malformed egd": "source schema { A(x) }\ntarget schema { B(x) }\negd e: B(x) -> x = y\n",
		"bad query": "source schema { A(x) }\ntarget schema { B(x) }\n" +
			"tgd t1: A(x) -> B(x)\nquery q(z) :- Missing(z)\n",
	} {
		if _, err := Compile(text); err == nil {
			t.Errorf("%s: Compile accepted\n%s", name, text)
		}
	}
	if _, err := FromMapping(nil); err == nil {
		t.Error("FromMapping(nil) accepted")
	}
	if _, err := FromTemporalMapping(nil); err == nil {
		t.Error("FromTemporalMapping(nil) accepted")
	}
}

// TestQueryLookup exercises the three addressing modes and their errors.
func TestQueryLookup(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx")
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	// "" resolves to the single declared query.
	byDefault, err := ex.Query(ctx, sol, "")
	if err != nil {
		t.Fatal(err)
	}
	byName, err := ex.Query(ctx, sol, "q")
	if err != nil || !byName.Equal(byDefault) {
		t.Fatalf("by-name: %v", err)
	}
	inline, err := ex.Query(ctx, sol, "query q(n, s) :- Emp(n, c, s)")
	if err != nil || !inline.Equal(byDefault) {
		t.Fatalf("inline: %v\n%s\nvs\n%s", err, inline, byDefault)
	}
	if _, err := ex.Query(ctx, sol, "nope"); err == nil || !strings.Contains(err.Error(), "no query named") {
		t.Fatalf("unknown name: %v", err)
	}
	if _, err := ex.Query(ctx, sol, "query bad(z) :- Missing(z)"); err == nil {
		t.Fatalf("invalid inline query accepted")
	}
}

// TestWithTraceAndStats: the trace hook sees the chase's events and the
// stats surface matches.
func TestWithTraceAndStats(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	ex := compileTestdata(t, "employment.tdx", WithTrace(func(e Event) {
		mu.Lock()
		events = append(events, e)
		mu.Unlock()
	}))
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(context.Background(), src)
	if err != nil {
		t.Fatal(err)
	}
	st := sol.Stats()
	if st.TGDFires == 0 || st.EgdMerges == 0 {
		t.Fatalf("stats: %+v", st)
	}
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
	}
	if kinds["normalize"] == 0 || kinds["tgd-fire"] != st.TGDFires || kinds["egd-merge"] != st.EgdMerges {
		t.Fatalf("trace kinds %v vs stats %+v", kinds, st)
	}
}

// TestCoalesceOption: WithCoalesce at compile time and per run.
func TestCoalesceOption(t *testing.T) {
	ctx := context.Background()
	ex := compileTestdata(t, "employment.tdx", WithCoalesce(true))
	src, err := ex.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	sol, err := ex.Run(ctx, src)
	if err != nil || !sol.IsCoalesced() {
		t.Fatalf("compile-time coalesce: %v, coalesced=%v", err, sol.IsCoalesced())
	}
	// Per-run override wins.
	raw, err := ex.Run(ctx, src, WithCoalesce(false))
	if err != nil {
		t.Fatal(err)
	}
	if !raw.Coalesce().Equal(&sol.Instance) {
		t.Fatal("per-run override diverged from compile-time coalescing")
	}
}
