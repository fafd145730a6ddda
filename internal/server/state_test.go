package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// health fetches and decodes /healthz.
func health(t *testing.T, h http.Handler) healthResponse {
	t.Helper()
	rec := do(h, "GET", "/healthz", "", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: status %d", rec.Code)
	}
	var resp healthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// runSolution posts a run and returns the embedded solution document.
func runSolution(t *testing.T, h http.Handler, hash, source string) json.RawMessage {
	t.Helper()
	rec := do(h, "POST", "/v1/exchanges/"+hash+"/run", "", source)
	if rec.Code != http.StatusOK {
		t.Fatalf("run: status %d: %s", rec.Code, rec.Body)
	}
	var resp struct {
		Solution json.RawMessage `json:"solution"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Solution
}

// quietCfg returns a state-enabled config whose persistence log lines
// fail the test: warm-start paths under test must not degrade silently.
func quietCfg(t *testing.T, dir string) Config {
	return Config{
		StateDir: dir,
		Logf: func(format string, args ...any) {
			t.Errorf("unexpected state log: "+format, args...)
		},
	}
}

// TestWarmStartRun is the end-to-end warm-start contract: a daemon
// restarted on the same state directory serves the first /run without
// any request-driven compile and byte-identical to the pre-restart
// response.
func TestWarmStartRun(t *testing.T) {
	dir := t.TempDir()
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")

	s1 := mustNew(t, quietCfg(t, dir))
	h1 := s1.Handler()
	hash := register(t, h1, mapping)
	cold := runSolution(t, h1, hash, source)
	hz := health(t, h1)
	if hz.Compiles != 1 || hz.SnapshotWrites < 1 || hz.WarmStarts != 0 {
		t.Fatalf("pre-restart healthz: %+v", hz)
	}

	// "Restart": a fresh server over the same directory.
	s2 := mustNew(t, quietCfg(t, dir))
	if err := s2.WarmStart(); err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	h2 := s2.Handler()
	hz = health(t, h2)
	if hz.Compiles != 0 {
		t.Fatalf("warm boot performed %d request-driven compiles", hz.Compiles)
	}
	if hz.Mappings != 1 || hz.WarmStarts != 1 {
		t.Fatalf("warm boot healthz: %+v", hz)
	}

	warm := runSolution(t, h2, hash, source)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm-started solution differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	hz = health(t, h2)
	if hz.Compiles != 0 {
		t.Fatalf("first warm run compiled: %+v", hz)
	}
	if hz.SnapshotLoads != 1 {
		t.Fatalf("first warm run did not hit the run-snapshot cache: %+v", hz)
	}

	// Re-registering the original text resolves to the replayed entry —
	// one compile is expected here (the manifest persisted the canonical
	// text, not this raw variant) but no duplicate entry appears.
	rec := do(h2, "POST", "/v1/mappings", "", mapping)
	if rec.Code != http.StatusOK {
		t.Fatalf("re-register after warm boot: status %d", rec.Code)
	}
	var rr registerResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &rr); err != nil {
		t.Fatal(err)
	}
	if rr.Hash != hash {
		t.Fatalf("re-registration resolved to %s, want %s", rr.Hash, hash)
	}
	if hz = health(t, h2); hz.Mappings != 1 {
		t.Fatalf("re-registration duplicated the entry: %+v", hz)
	}
}

// TestWarmStartSessionResume checks that live sessions survive a
// restart: same id, same delta count, same solution document.
func TestWarmStartSessionResume(t *testing.T) {
	dir := t.TempDir()
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")

	s1 := mustNew(t, quietCfg(t, dir))
	h1 := s1.Handler()
	hash := register(t, h1, mapping)

	rec := do(h1, "POST", "/v1/exchanges/"+hash+"/sessions", "", source)
	if rec.Code != http.StatusCreated {
		t.Fatalf("session create: status %d: %s", rec.Code, rec.Body)
	}
	var created sessionWire
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	rec = do(h1, "POST", "/v1/sessions/"+created.SessionID+"/facts?solution=true", "", "E(Carol, IBM) @ [2015, 2019)")
	if rec.Code != http.StatusOK {
		t.Fatalf("delta: status %d: %s", rec.Code, rec.Body)
	}
	var afterDelta factsWire
	if err := json.Unmarshal(rec.Body.Bytes(), &afterDelta); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, quietCfg(t, dir))
	if err := s2.WarmStart(); err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	h2 := s2.Handler()
	hz := health(t, h2)
	if hz.Sessions != 1 || hz.Compiles != 0 || hz.WarmStarts != 2 || hz.SnapshotLoads != 1 {
		t.Fatalf("resumed healthz: %+v", hz)
	}

	// An all-duplicate delta returns the current solution unchanged:
	// the resumed session must answer with the pre-restart document and
	// continue the delta numbering.
	rec = do(h2, "POST", "/v1/sessions/"+created.SessionID+"/facts?solution=true", "", "E(Carol, IBM) @ [2015, 2019)")
	if rec.Code != http.StatusOK {
		t.Fatalf("post-restart delta: status %d: %s", rec.Code, rec.Body)
	}
	var resumed factsWire
	if err := json.Unmarshal(rec.Body.Bytes(), &resumed); err != nil {
		t.Fatal(err)
	}
	if resumed.Deltas != afterDelta.Deltas+1 {
		t.Fatalf("delta numbering reset: %d after %d", resumed.Deltas, afterDelta.Deltas)
	}
	if resumed.Diff.AddedFacts != 0 || resumed.Diff.RemovedFacts != 0 {
		t.Fatalf("duplicate delta changed the resumed solution: %+v", resumed.Diff)
	}
	if !bytes.Equal(afterDelta.Solution, resumed.Solution) {
		t.Fatalf("resumed session solution differs:\npre:  %s\npost: %s", afterDelta.Solution, resumed.Solution)
	}

	// Deleting the session drops its snapshot and manifest row, so the
	// next boot resumes nothing.
	rec = do(h2, "DELETE", "/v1/sessions/"+created.SessionID, "", "")
	if rec.Code != http.StatusNoContent {
		t.Fatalf("delete: status %d", rec.Code)
	}
	s3 := mustNew(t, quietCfg(t, dir))
	if err := s3.WarmStart(); err != nil {
		t.Fatal(err)
	}
	if hz := health(t, s3.Handler()); hz.Sessions != 0 {
		t.Fatalf("deleted session resumed: %+v", hz)
	}
}

// TestSessionOnCachedRunKeepsFastPath: a session opened on a body whose
// run is already in the disk run cache chases its base instead of
// loading the cached snapshot, so its first delta still takes the
// semi-naive fast path.
func TestSessionOnCachedRunKeepsFastPath(t *testing.T) {
	dir := t.TempDir()
	source := readTestdata(t, "employment.facts")
	s := mustNew(t, quietCfg(t, dir))
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	runSolution(t, h, hash, source)

	rec := do(h, "POST", "/v1/exchanges/"+hash+"/sessions", "", source)
	if rec.Code != http.StatusCreated {
		t.Fatalf("session create: status %d: %s", rec.Code, rec.Body)
	}
	var created sessionWire
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}
	rec = do(h, "POST", "/v1/sessions/"+created.SessionID+"/facts", "",
		"E(Carol, IBM) @ [2015, 2019)\nS(Carol, 21k) @ [2015, 2019)")
	if rec.Code != http.StatusOK {
		t.Fatalf("delta: status %d: %s", rec.Code, rec.Body)
	}
	var resp factsWire
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.FallbackFullChase {
		t.Fatalf("delta on a session over a cached run fell back to a full re-chase: %+v", resp.Stats)
	}
	if hz := health(t, h); hz.SnapshotLoads != 0 {
		t.Fatalf("session create loaded the cached run: %+v", hz)
	}
}

// TestSessionRemovedDuringDelta: a session dropped while one of its
// deltas is in flight — by DELETE, or by an LRU eviction — stays dropped
// on disk. The onChase hook removes the session while the delta holds
// its gate slot and the session lock; once both requests have returned,
// the manifest has no row for the session, sessions/<id>.snap is gone,
// and a warm boot does not revive it.
func TestSessionRemovedDuringDelta(t *testing.T) {
	source := readTestdata(t, "employment.facts")
	cases := []struct {
		name   string
		remove func(t *testing.T, h http.Handler, hash, id string)
	}{
		{"delete", func(t *testing.T, h http.Handler, hash, id string) {
			if rec := do(h, "DELETE", "/v1/sessions/"+id, "", ""); rec.Code != http.StatusNoContent {
				t.Errorf("delete: status %d: %s", rec.Code, rec.Body)
			}
		}},
		{"evict", func(t *testing.T, h http.Handler, hash, id string) {
			// MaxSessions is 1, so a second session evicts the first.
			if rec := do(h, "POST", "/v1/exchanges/"+hash+"/sessions", "", source); rec.Code != http.StatusCreated {
				t.Errorf("second session: status %d: %s", rec.Code, rec.Body)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := quietCfg(t, dir)
			cfg.MaxSessions = 1
			s := mustNew(t, cfg)
			h, id := openSession(t, s)
			hash := register(t, h, readTestdata(t, "employment.tdx"))
			fired := false
			s.onChase = func() {
				if !fired { // the eviction's own session chase passes through
					fired = true
					c.remove(t, h, hash, id)
				}
			}
			if rec := do(h, "POST", "/v1/sessions/"+id+"/facts", "", "E(Carol, IBM) @ [2015, 2019)"); rec.Code != http.StatusOK {
				t.Fatalf("delta: status %d: %s", rec.Code, rec.Body)
			}
			if !fired {
				t.Fatal("the delta's chase never reached the hook")
			}

			data, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
			if err != nil {
				t.Fatal(err)
			}
			var man manifest
			if err := json.Unmarshal(data, &man); err != nil {
				t.Fatal(err)
			}
			for _, row := range man.Sessions {
				if row.ID == id {
					t.Fatalf("the dropped session's manifest row came back: %+v", row)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, "sessions", id+".snap")); !os.IsNotExist(err) {
				t.Fatalf("the dropped session's snapshot came back (stat err %v)", err)
			}
			s2 := mustNew(t, quietCfg(t, dir))
			if err := s2.WarmStart(); err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Sessions().Get(id); ok {
				t.Fatal("a warm boot revived the dropped session")
			}
		})
	}
}

// TestSourceCacheCounters checks the decoded-source cache: repeating a
// body against one exchange decodes once, and the counter says so.
func TestSourceCacheCounters(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))
	source := readTestdata(t, "employment.facts")

	first := runSolution(t, h, hash, source)
	second := runSolution(t, h, hash, source)
	if !bytes.Equal(first, second) {
		t.Fatal("cached-source run differs")
	}
	hz := health(t, h)
	if hz.SourceCacheHits != 1 {
		t.Fatalf("sourceCacheHits = %d, want 1", hz.SourceCacheHits)
	}
	// Stateless servers never touch snapshots.
	if hz.SnapshotLoads != 0 || hz.SnapshotWrites != 0 || hz.WarmStarts != 0 {
		t.Fatalf("stateless healthz shows snapshot traffic: %+v", hz)
	}

	// A different body (same facts, extra whitespace) is a cache miss:
	// keying is content-exact.
	if _, ok := s.sources.get(hash + "\x00" + sourceKey(false, []byte(source+" "))); ok {
		t.Fatal("whitespace variant unexpectedly cached")
	}
}

// TestCachedSourceInternerStable: a cached source's interner holds the
// source's values and nothing else, however it is used. Runs and session
// deltas on a cached body intern into overlays on its frozen interner,
// so after a /run, and after four sessions of 25 deltas with fresh
// names, the employment entry still holds the 11 distinct values of
// employment.facts; two /runs of the §7 phd example keep its entry at 2.
func TestCachedSourceInternerStable(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	values := func(hash, body string) int {
		t.Helper()
		src, ok := s.sources.get(hash + "\x00" + sourceKey(false, []byte(body)))
		if !ok {
			t.Fatal("source not cached")
		}
		return src.Concrete().Interner().Len()
	}

	hash := register(t, h, readTestdata(t, "employment.tdx"))
	source := readTestdata(t, "employment.facts")
	runSolution(t, h, hash, source)
	if n := values(hash, source); n != 11 {
		t.Fatalf("after a /run the cached source holds %d values, want 11", n)
	}
	for k := 0; k < 4; k++ {
		rec := do(h, "POST", "/v1/exchanges/"+hash+"/sessions", "", source)
		if rec.Code != http.StatusCreated {
			t.Fatalf("session %d: status %d: %s", k, rec.Code, rec.Body)
		}
		var sess sessionWire
		if err := json.Unmarshal(rec.Body.Bytes(), &sess); err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 25; d++ {
			delta := fmt.Sprintf("E(n%dx%d, Co%d) @ [2010, 2014)\nS(n%dx%d, %dk) @ [2011, 2013)", k, d, d, k, d, 10+d)
			if rec := do(h, "POST", "/v1/sessions/"+sess.SessionID+"/facts", "", delta); rec.Code != http.StatusOK {
				t.Fatalf("session %d delta %d: status %d: %s", k, d, rec.Code, rec.Body)
			}
		}
		if rec := do(h, "DELETE", "/v1/sessions/"+sess.SessionID, "", ""); rec.Code != http.StatusNoContent && rec.Code != http.StatusOK {
			t.Fatalf("delete session %d: status %d", k, rec.Code)
		}
	}
	if n := values(hash, source); n != 11 {
		t.Fatalf("after 100 session deltas the cached source holds %d values, want 11", n)
	}

	phash := register(t, h, readTestdata(t, "phd.tdx"))
	phd := readTestdata(t, "phd.facts")
	runSolution(t, h, phash, phd)
	runSolution(t, h, phash, phd)
	if n := values(phash, phd); n != 2 {
		t.Fatalf("after two §7 /runs the cached source holds %d values, want 2", n)
	}
}

// TestWarmStartOlderStateDir: a state directory written by an older
// daemon — raw source bodies under DIR/sources, a fleet node's DIR/node-id
// and a "counters" field in the manifest — still warm-starts. The
// mapping replays with no request-driven compile, the first /run comes
// byte-identical from the disk run cache, the source-cache hit counter
// starts from boot, and DIR/sources and DIR/node-id are left as they
// were found.
func TestWarmStartOlderStateDir(t *testing.T) {
	dir := t.TempDir()
	source := readTestdata(t, "employment.facts")

	s1 := mustNew(t, quietCfg(t, dir))
	h1 := s1.Handler()
	hash := register(t, h1, readTestdata(t, "employment.tdx"))
	cold := runSolution(t, h1, hash, source)

	// Add what older daemons also wrote: the durable counter row, the
	// run's body in DIR/sources, tagged 't' for fact text, and a fleet
	// node's identity file.
	manPath := filepath.Join(dir, "manifest.json")
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man map[string]any
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	man["counters"] = map[string]any{"sourceCacheHits": 3}
	if data, err = json.MarshalIndent(man, "", "  "); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	sources := filepath.Join(dir, "sources")
	if err := os.Mkdir(sources, 0o755); err != nil {
		t.Fatal(err)
	}
	name := fmt.Sprintf("%.16s-%s.src", hash, sourceKey(false, []byte(source)))
	if err := os.WriteFile(filepath.Join(sources, name), append([]byte{'t'}, source...), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, sources)
	nodeID := filepath.Join(dir, "node-id")
	if err := os.WriteFile(nodeID, []byte("host-0a1b2c3d4e5f\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustNew(t, quietCfg(t, dir))
	if err := s2.WarmStart(); err != nil {
		t.Fatalf("WarmStart: %v", err)
	}
	h2 := s2.Handler()
	if hz := health(t, h2); hz.Compiles != 0 || hz.WarmStarts != 1 || hz.SourceCacheHits != 0 {
		t.Fatalf("warm boot healthz: %+v", hz)
	}
	warm := runSolution(t, h2, hash, source)
	if !bytes.Equal(cold, warm) {
		t.Fatalf("warm-started solution differs:\ncold: %s\nwarm: %s", cold, warm)
	}
	if hz := health(t, h2); hz.SnapshotLoads != 1 || hz.Compiles != 0 {
		t.Fatalf("first warm run did not come from the run cache: %+v", hz)
	}
	if after := readDir(t, sources); !maps.Equal(before, after) {
		t.Fatalf("DIR/sources changed: %v -> %v", before, after)
	}
	if data, err := os.ReadFile(nodeID); err != nil || string(data) != "host-0a1b2c3d4e5f\n" {
		t.Fatalf("DIR/node-id changed: %q, %v", data, err)
	}
}

// readDir maps each file name in dir to its contents.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestRunCachePruned bounds the disk run cache: distinct sources beyond
// MaxRunSnapshots leave at most MaxRunSnapshots files on disk.
func TestRunCachePruned(t *testing.T) {
	dir := t.TempDir()
	cfg := quietCfg(t, dir)
	cfg.MaxRunSnapshots = 2
	s := mustNew(t, cfg)
	h := s.Handler()
	hash := register(t, h, readTestdata(t, "employment.tdx"))

	for _, src := range []string{
		"E(a, X) @ [1, 2)",
		"E(b, X) @ [1, 2)",
		"E(c, X) @ [1, 2)",
		"E(d, X) @ [1, 2)",
	} {
		runSolution(t, h, hash, src)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "runs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) > 2 {
		t.Fatalf("run cache holds %d files, bound is 2", len(ents))
	}
}

// TestWarmStartCorruptSnapshot: a damaged session snapshot degrades to
// a cold start for that session — logged, dropped, never fatal.
func TestWarmStartCorruptSnapshot(t *testing.T) {
	dir := t.TempDir()
	mapping := readTestdata(t, "employment.tdx")
	source := readTestdata(t, "employment.facts")

	s1 := mustNew(t, quietCfg(t, dir))
	h1 := s1.Handler()
	hash := register(t, h1, mapping)
	rec := do(h1, "POST", "/v1/exchanges/"+hash+"/sessions", "", source)
	if rec.Code != http.StatusCreated {
		t.Fatalf("session create: status %d", rec.Code)
	}
	var created sessionWire
	if err := json.Unmarshal(rec.Body.Bytes(), &created); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the session snapshot.
	path := filepath.Join(dir, "sessions", created.SessionID+".snap")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	logged := false
	s2 := mustNew(t, Config{StateDir: dir, Logf: func(string, ...any) { logged = true }})
	if err := s2.WarmStart(); err != nil {
		t.Fatalf("WarmStart on corrupt session: %v", err)
	}
	hz := health(t, s2.Handler())
	if hz.Sessions != 0 || hz.Mappings != 1 {
		t.Fatalf("corrupt session resumed: %+v", hz)
	}
	if !logged {
		t.Fatal("corrupt snapshot dropped silently")
	}
}

// TestRegisterReplayCompiles covers the replay path at the registry
// level: same entry, no Compiles increment.
func TestRegisterReplayCompiles(t *testing.T) {
	reg := NewRegistry(4, nil)
	text := readTestdata(t, "employment.tdx")
	entry, err := reg.RegisterReplay(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Compiles() != 0 {
		t.Fatalf("replay counted as a compile: %d", reg.Compiles())
	}
	if got, ok := reg.Get(entry.Hash); !ok || got != entry {
		t.Fatal("replayed entry not resident")
	}
	again, err := reg.RegisterReplay(context.Background(), text)
	if err != nil {
		t.Fatal(err)
	}
	if again != entry {
		t.Fatal("second replay duplicated the entry")
	}
}
