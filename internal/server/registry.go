package server

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	tdx "repro"
)

// CompileFunc compiles a mapping text into an exchange. The registry
// takes one so tests can count or fake compilations; nil means
// tdx.Compile.
type CompileFunc func(mapping string, opts ...tdx.Option) (*tdx.Exchange, error)

// Entry is one registered compiled exchange. Entries are immutable after
// registration (the Exchange itself is immutable by construction), so a
// request that resolved an entry keeps a usable pointer even if the
// entry is evicted from the registry mid-flight.
type Entry struct {
	Hash       string // the exchange's canonical fingerprint
	Exchange   *tdx.Exchange
	Info       tdx.Info
	Registered time.Time
	// rawKeys are the request keys (text+options hashes) that resolved to
	// this entry; eviction drops their index entries alongside the entry.
	rawKeys []string
}

// Registry is a mapping-hash-keyed, LRU-bounded store of compiled
// exchanges with singleflight-deduplicated compilation: a burst of
// concurrent registrations of the same mapping text compiles exactly
// once, every caller sharing the one result. Entries are keyed on the
// exchange's canonical fingerprint (tdx.Exchange.Fingerprint), so two
// texts differing only in whitespace or comments share one entry; the
// pre-compile dedup is keyed on the raw text plus the option
// fingerprint, the only identity computable before compilation.
//
// The LRU bound is the daemon's memory governor: each entry holds
// compiled plans, and the least-recently-used entry is dropped when a
// registration would exceed the capacity. An evicted mapping
// re-registers (and recompiles) transparently on next use.
//
// All methods are safe for concurrent use.
type Registry struct {
	compile CompileFunc

	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // fingerprint → element holding *Entry
	order    *list.List               // front = most recently used
	rawIndex map[string]string        // raw request key → fingerprint
	inflight map[string]*flight       // raw request key → in-progress compile
	compiles int64
	evicted  int64
}

// flight is one in-progress compilation; waiters block on done (or
// their own context) and read the published result afterwards.
type flight struct {
	done   chan struct{}
	entry  *Entry
	cached bool
	err    error
}

// DefaultCapacity bounds the registry when the configuration does not.
const DefaultCapacity = 64

// NewRegistry returns a registry holding at most capacity compiled
// exchanges (DefaultCapacity when <= 0), compiling with compile
// (tdx.Compile when nil).
func NewRegistry(capacity int, compile CompileFunc) *Registry {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if compile == nil {
		compile = tdx.Compile
	}
	return &Registry{
		compile:  compile,
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
		rawIndex: make(map[string]string),
		inflight: make(map[string]*flight),
	}
}

// requestKey is the pre-compile identity of a registration: the mapping
// text plus the output-affecting option fingerprint.
func requestKey(text string, opts []tdx.Option) string {
	h := sha256.New()
	h.Write([]byte(text))
	h.Write([]byte{0})
	h.Write([]byte(tdx.OptionsFingerprint(opts...)))
	return hex.EncodeToString(h.Sum(nil))
}

// Register resolves a mapping text (plus compile options) to its entry,
// compiling at most once per distinct text: a cache hit returns the
// existing entry, a concurrent duplicate waits for the in-flight
// compile, and only a genuinely new text pays for compilation. cached
// reports whether an already-registered entry served the call.
//
// ctx bounds this caller's wait, not the compilation: when ctx expires
// the call returns ctx's error immediately, while the compile (which is
// not cancelable mid-flight) finishes on its own goroutine and
// publishes its entry for later registrations — abandoned work is
// still deduplicated, never repeated.
func (r *Registry) Register(ctx context.Context, text string, opts ...tdx.Option) (*Entry, bool, error) {
	return r.register(ctx, text, opts, false)
}

// RegisterReplay registers a mapping through Register's deduplicated
// compile without counting toward Compiles — the warm-start path.
// Compiles is the request-driven compilation counter (what a restarted
// daemon's clients would have paid again), so boot-time replays of the
// persisted manifest must not inflate it: a warm-started daemon whose
// first request needs no compile reports compiles == 0.
func (r *Registry) RegisterReplay(ctx context.Context, text string, opts ...tdx.Option) (*Entry, error) {
	e, _, err := r.register(ctx, text, opts, true)
	return e, err
}

// register is Register and RegisterReplay: replay compiles do not count
// toward Compiles.
func (r *Registry) register(ctx context.Context, text string, opts []tdx.Option, replay bool) (*Entry, bool, error) {
	raw := requestKey(text, opts)
	r.mu.Lock()
	// Fast path: this exact request resolved before and the entry is
	// still resident.
	if hash, ok := r.rawIndex[raw]; ok {
		if el, ok := r.entries[hash]; ok {
			r.touchLocked(el)
			e := el.Value.(*Entry)
			r.mu.Unlock()
			return e, true, nil
		}
		// The entry was evicted since; recompile below.
		delete(r.rawIndex, raw)
	}
	fl, ok := r.inflight[raw]
	if !ok {
		// This caller starts the (sole) compile for this request key. It
		// runs detached so an impatient caller's ctx cannot orphan the
		// other waiters or waste the work.
		fl = &flight{done: make(chan struct{})}
		r.inflight[raw] = fl
		go r.compileFlight(fl, raw, text, opts, replay)
	}
	r.mu.Unlock()
	select {
	case <-fl.done:
		return fl.entry, fl.cached, fl.err
	case <-ctx.Done():
		return nil, false, fmt.Errorf("server: registration abandoned (the compile continues and will be cached): %w", ctx.Err())
	}
}

// compileFlight performs one deduplicated compilation and publishes the
// result into the registry and onto the flight.
func (r *Registry) compileFlight(fl *flight, raw, text string, opts []tdx.Option, replay bool) {
	ex, err := r.compile(text, opts...)

	r.mu.Lock()
	if !replay {
		r.compiles++
	}
	delete(r.inflight, raw)
	if err != nil {
		r.mu.Unlock()
		fl.err = err
		close(fl.done)
		return
	}
	hash := ex.Fingerprint()
	if el, ok := r.entries[hash]; ok {
		// A differently-formatted text compiled to an already-registered
		// exchange: keep the resident entry (its Exchange may be warm) and
		// let this request key point at it.
		r.touchLocked(el)
		fl.entry, fl.cached = el.Value.(*Entry), true
	} else {
		fl.entry = &Entry{Hash: hash, Exchange: ex, Info: ex.Info(), Registered: time.Now()}
		r.entries[hash] = r.order.PushFront(fl.entry)
		r.evictLocked()
	}
	e := fl.entry
	e.rawKeys = append(e.rawKeys, raw)
	r.rawIndex[raw] = hash
	// Bound the raw-key index per entry: a client that varies its text
	// cosmetically on every registration (embedded timestamps, generated
	// comments) keeps hitting one hot canonical entry that is never
	// evicted, so without a cap its raw keys — and rawIndex — would grow
	// with registration traffic. Beyond the cap the oldest raw key is
	// forgotten; re-sending that exact text later just recompiles.
	if len(e.rawKeys) > maxRawKeysPerEntry {
		delete(r.rawIndex, e.rawKeys[0])
		e.rawKeys = append(e.rawKeys[:0], e.rawKeys[1:]...)
	}
	r.mu.Unlock()
	close(fl.done)
}

// maxRawKeysPerEntry caps how many distinct text variants keep
// pre-compile cache hits per canonical entry; total rawIndex size is
// then bounded by capacity × this.
const maxRawKeysPerEntry = 8

// Get resolves a fingerprint to its entry, marking it most recently
// used.
func (r *Registry) Get(hash string) (*Entry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.entries[hash]
	if !ok {
		return nil, false
	}
	r.touchLocked(el)
	return el.Value.(*Entry), true
}

// Entries returns the resident entries, most recently used first.
func (r *Registry) Entries() []*Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Entry, 0, r.order.Len())
	for el := r.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*Entry))
	}
	return out
}

// Len returns the number of resident entries.
func (r *Registry) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.order.Len()
}

// Capacity returns the registry's LRU bound.
func (r *Registry) Capacity() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.capacity
}

// Compiles returns the total number of compilations performed (including
// failed ones) — the singleflight and cache effectiveness counter.
func (r *Registry) Compiles() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compiles
}

// Evicted returns the number of entries dropped by the LRU bound.
func (r *Registry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// touchLocked marks an element most recently used.
func (r *Registry) touchLocked(el *list.Element) { r.order.MoveToFront(el) }

// evictLocked drops least-recently-used entries until the capacity
// holds.
func (r *Registry) evictLocked() {
	for r.order.Len() > r.capacity {
		el := r.order.Back()
		e := el.Value.(*Entry)
		r.order.Remove(el)
		delete(r.entries, e.Hash)
		for _, raw := range e.rawKeys {
			delete(r.rawIndex, raw)
		}
		r.evicted++
	}
}
