package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	tdx "repro"
)

// Warm-start persistence: a server given Config.StateDir keeps enough
// state on disk to serve its first requests after a restart without
// recompiling mappings or re-running chases.
//
//	DIR/manifest.json   registered mappings (canonical text + options)
//	                    and live session rows
//	DIR/runs/           solution snapshots keyed by (exchange, source
//	                    content, run options) — the disk run cache
//	DIR/sessions/       one solution snapshot per live session
//
// Older daemons also wrote DIR/sources (raw source bodies), DIR/node-id
// (a fleet node's identity) and a "counters" manifest field. All are
// ignored: the directory and the file are left as found, and the field
// is dropped by the next manifest write.
//
// The manifest holds only what cannot be derived from snapshots: the
// mapping texts (snapshots carry data, not dependencies) and the
// session ids binding snapshot files to registry entries. Everything
// else — solutions and their embedded sources — lives in the snapshot
// format of internal/snapshot, so a warm boot maps files instead of
// chasing. All writes are atomic (temp file + rename); a crash mid-write
// leaves the previous state.
//
// Persistence failures never fail requests: the stateStore logs and the
// daemon keeps serving from memory. A corrupt or stale snapshot is
// detected at load (checksums, schema validation) and treated as a
// cache miss.

// manifest is the JSON document at DIR/manifest.json.
type manifest struct {
	Version  int               `json:"version"`
	Mappings []manifestMapping `json:"mappings"`
	Sessions []manifestSession `json:"sessions"`
}

// manifestMapping re-registers one mapping at boot: the canonical
// mapping text (rendered by tdx.Exchange.Canonical, so cosmetic
// variants collapse) plus the compile options, which together reproduce
// the entry's fingerprint.
type manifestMapping struct {
	Hash    string         `json:"hash"`
	Mapping string         `json:"mapping"`
	Options requestOptions `json:"options"`
}

// manifestSession resumes one incremental session at boot from its
// snapshot file under DIR/sessions.
type manifestSession struct {
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	Deltas int64  `json:"deltas"`
}

const manifestVersion = 1

// stateStore owns a state directory. All methods are safe for
// concurrent use and never fail the calling request: errors are
// returned for the server to count and log.
type stateStore struct {
	dir     string
	maxRuns int

	mu  sync.Mutex
	man manifest
}

// newStateStore opens (creating as needed) a state directory and reads
// its manifest.
func newStateStore(dir string, maxRuns int) (*stateStore, error) {
	for _, d := range []string{dir, filepath.Join(dir, "runs"), filepath.Join(dir, "sessions")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("state dir: %w", err)
		}
	}
	st := &stateStore{dir: dir, maxRuns: maxRuns, man: manifest{Version: manifestVersion}}
	data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	switch {
	case os.IsNotExist(err):
		return st, nil
	case err != nil:
		return nil, fmt.Errorf("state manifest: %w", err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return nil, fmt.Errorf("state manifest: %w", err)
	}
	if man.Version != manifestVersion {
		return nil, fmt.Errorf("state manifest: version %d, this daemon writes %d", man.Version, manifestVersion)
	}
	st.man = man
	return st, nil
}

// snapshot returns a copy of the manifest for replay.
func (st *stateStore) snapshot() manifest {
	st.mu.Lock()
	defer st.mu.Unlock()
	man := st.man
	man.Mappings = append([]manifestMapping(nil), st.man.Mappings...)
	man.Sessions = append([]manifestSession(nil), st.man.Sessions...)
	return man
}

// saveLocked writes the manifest atomically. Callers hold st.mu.
func (st *stateStore) saveLocked() error {
	data, err := json.MarshalIndent(st.man, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(st.dir, "manifest.json")
	tmp, err := os.CreateTemp(st.dir, "manifest-*.tmp")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// rememberMapping records (or refreshes) a mapping row, keeping at most
// cap rows by dropping the oldest — mirroring the registry's LRU bound,
// so the manifest cannot outgrow what a warm boot would hold anyway.
func (st *stateStore) rememberMapping(hash, canonical string, opts requestOptions, cap int) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	rows := st.man.Mappings[:0]
	for _, m := range st.man.Mappings {
		if m.Hash != hash {
			rows = append(rows, m)
		}
	}
	rows = append(rows, manifestMapping{Hash: hash, Mapping: canonical, Options: opts})
	if cap > 0 && len(rows) > cap {
		rows = rows[len(rows)-cap:]
	}
	st.man.Mappings = append([]manifestMapping(nil), rows...)
	return st.saveLocked()
}

// rememberSession records (or updates) a session row.
func (st *stateStore) rememberSession(id, hash string, deltas int64) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	for i := range st.man.Sessions {
		if st.man.Sessions[i].ID == id {
			st.man.Sessions[i].Deltas = deltas
			return st.saveLocked()
		}
	}
	st.man.Sessions = append(st.man.Sessions, manifestSession{ID: id, Hash: hash, Deltas: deltas})
	return st.saveLocked()
}

// forgetSession drops a session row and its snapshot file.
func (st *stateStore) forgetSession(id string) error {
	st.mu.Lock()
	rows := st.man.Sessions[:0]
	for _, s := range st.man.Sessions {
		if s.ID != id {
			rows = append(rows, s)
		}
	}
	st.man.Sessions = rows
	err := st.saveLocked()
	st.mu.Unlock()
	if rmErr := os.Remove(st.sessionPath(id)); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
		err = rmErr
	}
	return err
}

// sessionPath is the snapshot file of one session.
func (st *stateStore) sessionPath(id string) string {
	return filepath.Join(st.dir, "sessions", sanitize(id)+".snap")
}

// saveSession snapshots a session's current solution (embedded source
// included) and updates its manifest row.
func (st *stateStore) saveSession(id, hash string, deltas int64, sol *tdx.Solution) error {
	if err := sol.WriteSnapshotFile(st.sessionPath(id)); err != nil {
		return err
	}
	return st.rememberSession(id, hash, deltas)
}

// runKey derives the run-cache file stem from the full identity of a
// deterministic run: the exchange fingerprint, the source content hash,
// and the effective output-affecting options.
func runKey(entryHash, srcHash, optionsFp string) string {
	opt := sha256.Sum256([]byte(optionsFp))
	return fmt.Sprintf("%.16s-%.16s-%s", entryHash, srcHash, hex.EncodeToString(opt[:4]))
}

// runPath is the snapshot file of one cached run.
func (st *stateStore) runPath(key string) string {
	return filepath.Join(st.dir, "runs", key+".snap")
}

// saveRun writes a run snapshot and prunes the cache directory down to
// maxRuns files (oldest first, by modification time).
func (st *stateStore) saveRun(key string, sol *tdx.Solution) error {
	if err := sol.WriteSnapshotFile(st.runPath(key)); err != nil {
		return err
	}
	return st.pruneRuns()
}

// pruneRuns bounds the run cache directory to maxRuns snapshot files,
// dropping the oldest by modification time.
func (st *stateStore) pruneRuns() error {
	dir := filepath.Join(st.dir, "runs")
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type aged struct {
		name string
		mod  int64
	}
	files := make([]aged, 0, len(ents))
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".snap" {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), fi.ModTime().UnixNano()})
	}
	if len(files) <= st.maxRuns {
		return nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mod < files[j].mod })
	var firstErr error
	for _, f := range files[:len(files)-st.maxRuns] {
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sanitize keeps ids filesystem-safe; session ids are hex, so this only
// defends against a hand-edited manifest.
func sanitize(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// sourceKey hashes a request body (with a format discriminator: the
// same bytes mean different instances as JSON vs fact text) for the
// run cache and the decoded-source cache.
func sourceKey(jsonBody bool, body []byte) string {
	h := sha256.New()
	if jsonBody {
		h.Write([]byte{'j', 0})
	} else {
		h.Write([]byte{'t', 0})
	}
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))
}
