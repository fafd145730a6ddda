package server

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	tdx "repro"
)

// countingCompile wraps tdx.Compile with a counter and an optional
// artificial latency.
func countingCompile(n *atomic.Int64, delay time.Duration) CompileFunc {
	return func(mapping string, opts ...tdx.Option) (*tdx.Exchange, error) {
		n.Add(1)
		if delay > 0 {
			time.Sleep(delay)
		}
		return tdx.Compile(mapping, opts...)
	}
}

func TestRegistrySingleflight(t *testing.T) {
	var compiles atomic.Int64
	reg := NewRegistry(8, countingCompile(&compiles, 20*time.Millisecond))
	text := readTestdata(t, "employment.tdx")

	const n = 16
	entries := make([]*Entry, n)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			e, _, err := reg.Register(context.Background(), text)
			if err != nil {
				t.Error(err)
				return
			}
			entries[i] = e
		}(i)
	}
	close(start)
	wg.Wait()
	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiles = %d, want 1", got)
	}
	for i, e := range entries {
		if e == nil || e != entries[0] {
			t.Fatalf("goroutine %d resolved a different entry", i)
		}
	}
	if reg.Len() != 1 || reg.Compiles() != 1 {
		t.Fatalf("registry: len=%d compiles=%d", reg.Len(), reg.Compiles())
	}
}

// TestRegistryCanonicalDedup: two texts that differ only in formatting
// compile separately (distinct raw keys) but share one canonical entry.
func TestRegistryCanonicalDedup(t *testing.T) {
	var compiles atomic.Int64
	reg := NewRegistry(8, countingCompile(&compiles, 0))
	text := readTestdata(t, "employment.tdx")
	noisy := "# comment\n" + text

	a, cached, err := reg.Register(context.Background(), text)
	if err != nil || cached {
		t.Fatalf("first register: %v cached=%v", err, cached)
	}
	b, cached, err := reg.Register(context.Background(), noisy)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || b != a {
		t.Fatalf("reformatted text did not dedup onto the canonical entry")
	}
	if compiles.Load() != 2 || reg.Len() != 1 {
		t.Fatalf("compiles=%d len=%d, want 2 compiles collapsing to 1 entry", compiles.Load(), reg.Len())
	}
	// Both raw keys now hit without compiling.
	if _, _, err := reg.Register(context.Background(), text); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reg.Register(context.Background(), noisy); err != nil {
		t.Fatal(err)
	}
	if compiles.Load() != 2 {
		t.Fatalf("cached registrations recompiled: %d", compiles.Load())
	}
}

// TestRegistryCompileError: failures propagate to every waiter and are
// not cached — the next attempt recompiles.
func TestRegistryCompileError(t *testing.T) {
	var compiles atomic.Int64
	reg := NewRegistry(8, countingCompile(&compiles, 10*time.Millisecond))
	const bad = "this is not a mapping"

	const n = 4
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = reg.Register(context.Background(), bad)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: bad mapping accepted", i)
		}
	}
	if reg.Len() != 0 {
		t.Fatalf("failed compile left an entry")
	}
	first := compiles.Load()
	if first < 1 || first > n {
		t.Fatalf("compiles = %d after burst", first)
	}
	// Errors are not negative-cached: a retry compiles again.
	if _, _, err := reg.Register(context.Background(), bad); err == nil {
		t.Fatal("retry accepted")
	}
	if compiles.Load() != first+1 {
		t.Fatalf("retry did not recompile: %d vs %d", compiles.Load(), first)
	}
}

// TestRegistryOptionsKeyed: the same text under output-affecting options
// is a distinct exchange; under output-neutral options it is not.
func TestRegistryOptionsKeyed(t *testing.T) {
	reg := NewRegistry(8, nil)
	text := readTestdata(t, "employment.tdx")
	a, _, err := reg.Register(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	b, cached, err := reg.Register(context.Background(), text, tdx.WithNorm(tdx.NormNaive))
	if err != nil {
		t.Fatal(err)
	}
	if cached || b == a || b.Hash == a.Hash {
		t.Fatal("naive-norm exchange shares the default entry")
	}
	c, cached, err := reg.Register(context.Background(), text, tdx.WithRunInterner())
	if err != nil {
		t.Fatal(err)
	}
	// Distinct raw key (different opts list → we cannot know pre-compile),
	// but the canonical fingerprint collapses onto the default entry.
	if !cached || c != a {
		t.Fatal("interner-only options created a distinct entry")
	}
}

// TestEntrySurvivesEviction: a request holding an entry keeps a usable
// exchange even when the registry evicts it mid-flight.
func TestEntrySurvivesEviction(t *testing.T) {
	reg := NewRegistry(1, nil)
	base := readTestdata(t, "employment.tdx")
	e, _, err := reg.Register(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	// Evict it by registering a different mapping into the 1-slot registry.
	if _, _, err := reg.Register(context.Background(), strings.ReplaceAll(base, "tgd sigma1:", "tgd other:")); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(e.Hash); ok {
		t.Fatal("entry should be evicted")
	}
	// The held pointer still runs.
	src, err := e.Exchange.ParseSource(readTestdata(t, "employment.facts"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exchange.Run(nil, src); err != nil {
		t.Fatalf("evicted exchange no longer runs: %v", err)
	}
}

// TestRawIndexBounded: cosmetic text variants all hitting one canonical
// entry must not grow the raw-key index without bound.
func TestRawIndexBounded(t *testing.T) {
	var compiles atomic.Int64
	reg := NewRegistry(8, countingCompile(&compiles, 0))
	text := readTestdata(t, "employment.tdx")
	const variants = 40
	for i := 0; i < variants; i++ {
		e, _, err := reg.Register(context.Background(), strings.Repeat("#\n", i)+text)
		if err != nil {
			t.Fatal(err)
		}
		if e.Hash == "" {
			t.Fatal("no hash")
		}
	}
	if reg.Len() != 1 {
		t.Fatalf("variants created %d entries", reg.Len())
	}
	reg.mu.Lock()
	rawLen := len(reg.rawIndex)
	entryRaw := len(reg.entries[reg.order.Front().Value.(*Entry).Hash].Value.(*Entry).rawKeys)
	reg.mu.Unlock()
	if rawLen > maxRawKeysPerEntry || entryRaw > maxRawKeysPerEntry {
		t.Fatalf("raw index unbounded: rawIndex=%d entryRawKeys=%d (cap %d)", rawLen, entryRaw, maxRawKeysPerEntry)
	}
	// Every variant compiled once (distinct raw text), but recent raw
	// keys still hit the pre-compile cache.
	before := compiles.Load()
	if _, cached, err := reg.Register(context.Background(), strings.Repeat("#\n", variants-1)+text); err != nil || !cached {
		t.Fatalf("recent variant missed: %v", err)
	}
	if compiles.Load() != before {
		t.Fatal("recent variant recompiled")
	}
}

// TestRegisterAbandonedByContext: a caller whose context expires stops
// waiting immediately, but the compile finishes detached and is cached —
// the retry gets it without recompiling.
func TestRegisterAbandonedByContext(t *testing.T) {
	var compiles atomic.Int64
	reg := NewRegistry(8, countingCompile(&compiles, 100*time.Millisecond))
	text := readTestdata(t, "employment.tdx")

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	started := time.Now()
	_, _, err := reg.Register(ctx, text)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned register: err=%v", err)
	}
	if waited := time.Since(started); waited > 80*time.Millisecond {
		t.Fatalf("abandoned register blocked %v; must return at ctx expiry", waited)
	}
	// A patient retry shares the detached compile's result.
	e, _, err := reg.Register(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if e == nil || e.Hash == "" {
		t.Fatal("retry got no entry")
	}
	if got := compiles.Load(); got != 1 {
		t.Fatalf("compiles = %d, want 1 (abandoned work must be reused)", got)
	}
}
