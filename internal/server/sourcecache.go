package server

import (
	"container/list"
	"sync"

	tdx "repro"
)

// maxSources bounds the decoded-source cache.
const maxSources = 32

// sourceCache is an LRU of decoded, frozen source instances keyed by
// (exchange fingerprint, body content hash): a client re-posting the
// same source document — the retry loop, the run/answer/snapshot triple
// over one dataset — skips decode and re-interning entirely. Frozen
// instances are safe to share across concurrent runs, which is what
// makes the cache sound. All methods are safe for concurrent use.
type sourceCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	order   *list.List // front = most recently used
}

type sourceCacheEntry struct {
	key string
	src *tdx.Instance
}

// newSourceCache returns an empty cache holding at most maxSources
// entries.
func newSourceCache() *sourceCache {
	return &sourceCache{
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

func (c *sourceCache) get(key string) (*tdx.Instance, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*sourceCacheEntry).src, true
}

// len returns the number of cached sources.
func (c *sourceCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// values returns the sum of the interner lengths of the cached sources.
// Runs intern into overlays, so it moves only as entries come and go.
func (c *sourceCache) values() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.order.Front(); el != nil; el = el.Next() {
		n += el.Value.(*sourceCacheEntry).src.Concrete().Interner().Len()
	}
	return n
}

func (c *sourceCache) put(key string, src *tdx.Instance) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*sourceCacheEntry).src = src
		return
	}
	c.entries[key] = c.order.PushFront(&sourceCacheEntry{key: key, src: src})
	for c.order.Len() > maxSources {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*sourceCacheEntry).key)
	}
}
