package server

import (
	"container/list"
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	tdx "repro"
)

// Incremental exchange sessions: a session pins a frozen base solution
// (and the chase state its exchange retained for it) so follow-up
// deltas run through tdx.RunDelta instead of re-chasing the base. The
// session store mirrors the mapping registry's discipline — LRU-bounded
// with eviction counters — because a live session is the daemon's other
// structural memory cost: each one holds a solution plus its retained
// source, normalized source, and pre-egd intermediate.

// DefaultMaxSessions bounds the session store when the configuration
// does not.
const DefaultMaxSessions = 64

// Session is one live incremental-exchange session. The embedded mutex
// serializes deltas: each delta's base is the previous solution, so two
// concurrent posts to one session apply in some order, never to the
// same base.
type Session struct {
	ID      string
	Entry   *Entry // the compiled exchange the session runs against
	Created time.Time

	mu     sync.Mutex
	sol    *tdx.Solution
	deltas int64 // deltas applied so far

	// persistMu orders the session's persistence against its removal:
	// gone is set under it once DELETE or eviction has dropped the
	// session's persisted state, and no write happens after that.
	persistMu sync.Mutex
	gone      bool
}

// Solution returns the session's current solution.
func (s *Session) Solution() *tdx.Solution {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sol
}

// Deltas returns how many deltas have been applied.
func (s *Session) Deltas() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deltas
}

// SessionStore is an LRU-bounded store of live sessions. All methods
// are safe for concurrent use.
type SessionStore struct {
	mu       sync.Mutex
	capacity int
	entries  map[string]*list.Element // id → element holding *Session
	order    *list.List               // front = most recently used
	evicted  int64
	onEvict  func(*Session) // see OnEvict
}

// OnEvict installs a hook invoked (outside the store's lock) for every
// session dropped by the LRU bound — the persistence layer uses it to
// delete the evicted session's snapshot file. Explicit Delete does not
// trigger it; the deleting caller already knows the id. Set before the
// store is shared.
func (st *SessionStore) OnEvict(fn func(*Session)) { st.onEvict = fn }

// NewSessionStore returns a store holding at most capacity live
// sessions (DefaultMaxSessions when <= 0).
func NewSessionStore(capacity int) *SessionStore {
	if capacity <= 0 {
		capacity = DefaultMaxSessions
	}
	return &SessionStore{
		capacity: capacity,
		entries:  make(map[string]*list.Element),
		order:    list.New(),
	}
}

// newSessionID returns a fresh opaque session id.
func newSessionID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; ids only need to be
		// unique within one process, so fall back to time.
		return hex.EncodeToString([]byte(time.Now().Format(time.RFC3339Nano)))
	}
	return hex.EncodeToString(b[:])
}

// Add registers a new session over the given entry and base solution,
// evicting the least-recently-used session beyond the capacity.
func (st *SessionStore) Add(entry *Entry, sol *tdx.Solution) *Session {
	return st.AddWithID(newSessionID(), entry, sol, 0)
}

// AddWithID registers a session under a caller-chosen id with a
// starting delta count — the warm-start resume path, which must revive
// sessions under the ids clients already hold. An id collision replaces
// the existing session.
func (st *SessionStore) AddWithID(id string, entry *Entry, sol *tdx.Solution, deltas int64) *Session {
	sess := &Session{ID: id, Entry: entry, Created: time.Now(), sol: sol, deltas: deltas}
	var dropped []*Session
	st.mu.Lock()
	if el, ok := st.entries[id]; ok {
		st.order.Remove(el)
		delete(st.entries, id)
	}
	st.entries[sess.ID] = st.order.PushFront(sess)
	for st.order.Len() > st.capacity {
		el := st.order.Back()
		old := el.Value.(*Session)
		st.order.Remove(el)
		delete(st.entries, old.ID)
		st.evicted++
		dropped = append(dropped, old)
	}
	fn := st.onEvict
	st.mu.Unlock()
	if fn != nil {
		for _, old := range dropped {
			fn(old)
		}
	}
	return sess
}

// Get resolves a session id, marking it most recently used.
func (st *SessionStore) Get(id string) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return nil, false
	}
	st.order.MoveToFront(el)
	return el.Value.(*Session), true
}

// Delete drops a session and returns it, reporting whether it was live.
func (st *SessionStore) Delete(id string) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	el, ok := st.entries[id]
	if !ok {
		return nil, false
	}
	st.order.Remove(el)
	delete(st.entries, id)
	return el.Value.(*Session), true
}

// Len returns the number of live sessions.
func (st *SessionStore) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.order.Len()
}

// Capacity returns the store's LRU bound.
func (st *SessionStore) Capacity() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.capacity
}

// Evicted returns the number of sessions dropped by the LRU bound.
func (st *SessionStore) Evicted() int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.evicted
}
