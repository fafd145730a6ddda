package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client is one closed-loop client on its own keep-alive connection.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

// do sends one request and reads the whole response. The duration runs
// from the send to the last body byte. The returned body is valid until
// the next call.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte, time.Duration, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, c.buf.Bytes(), time.Since(start), err
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// checkResponse is the check every request gets: the expected status and
// a well-formed JSON document that starts with prefix.
func checkResponse(status, want int, body []byte, err error, prefix string) error {
	switch {
	case err != nil:
		return err
	case status != want:
		return fmt.Errorf("status %d (want %d): %.200s", status, want, body)
	case !bytes.HasPrefix(body, []byte(prefix)) || !json.Valid(body):
		return fmt.Errorf("malformed response: %.200s", body)
	}
	return nil
}

// outcome is what one request did.
type outcome struct {
	measured bool // counts toward the workload's latency and throughput
	run      bool // went through tdxd's run pipeline and its source cache
	latency  time.Duration
	err      error
}

// actor is one closed-loop client's request stream.
type actor interface {
	next(c *client) outcome
	// finish drops server-side state the actor holds.
	finish(c *client) error
}

func runPath(hash, query string) string {
	p := "/v1/exchanges/" + hash + "/run"
	if query != "" {
		p += "?query=" + query
	}
	return p
}

// runActor posts run requests; a counter shared by the clients numbers
// them, and request id's body is w.body(id).
type runActor struct {
	w    *workload
	hash string
	ids  *atomic.Int64
}

func (a *runActor) next(c *client) outcome {
	id := int(a.ids.Add(1) - 1)
	st, resp, d, err := c.do("POST", runPath(a.hash, a.w.query), a.w.contentType(), a.w.body(id))
	return outcome{measured: true, run: true, latency: d, err: checkResponse(st, http.StatusOK, resp, err, `{"hash":"`+a.hash+`"`)}
}

func (a *runActor) finish(*client) error { return nil }

// sessionActor opens a session, posts one script's deltas, deletes the
// session and opens the next. Only delta posts are measured.
type sessionActor struct {
	p      *sessionPlan
	hash   string
	opens  *atomic.Int64 // shared by the clients: session k plays script k mod len(scripts)
	record *solutionLog

	id     string
	script int
	pos    int
}

func (a *sessionActor) next(c *client) outcome {
	if a.id == "" {
		k := int(a.opens.Add(1) - 1)
		id, err := openSession(c, a.hash, a.p.baseBody)
		a.id, a.script, a.pos = id, k%len(a.p.scripts), 0
		return outcome{run: true, err: err}
	}
	if a.pos == len(a.p.scripts[a.script]) {
		err := deleteSession(c, a.id)
		a.id = ""
		return outcome{err: err}
	}
	dl := a.p.scripts[a.script][a.pos]
	st, resp, d, err := c.do("POST", deltaPath(a.id, dl.solution), "text/plain", dl.body)
	err = checkResponse(st, http.StatusOK, resp, err, `{"sessionId":"`+a.id+`"`)
	if err == nil && dl.solution {
		err = a.record.add(a.script, a.pos, resp)
	}
	a.pos++
	return outcome{measured: true, latency: d, err: err}
}

func (a *sessionActor) finish(c *client) error {
	if a.id == "" {
		return nil
	}
	err := deleteSession(c, a.id)
	a.id = ""
	return err
}

func openSession(c *client, hash string, body []byte) (string, error) {
	st, resp, _, err := c.do("POST", "/v1/exchanges/"+hash+"/sessions", "text/plain", body)
	if err := checkResponse(st, http.StatusCreated, resp, err, `{"sessionId":"`); err != nil {
		return "", fmt.Errorf("open session: %w", err)
	}
	var head struct {
		SessionID string `json:"sessionId"`
	}
	if err := json.Unmarshal(resp, &head); err != nil || head.SessionID == "" {
		return "", fmt.Errorf("open session: no session id: %v", err)
	}
	return head.SessionID, nil
}

func deleteSession(c *client, id string) error {
	st, resp, _, err := c.do("DELETE", "/v1/sessions/"+id, "", nil)
	if err == nil && st != http.StatusNoContent {
		err = fmt.Errorf("status %d: %.200s", st, resp)
	}
	if err != nil {
		return fmt.Errorf("delete session: %w", err)
	}
	return nil
}

func deltaPath(id string, solution bool) string {
	p := "/v1/sessions/" + id + "/facts"
	if solution {
		p += "?solution=true"
	}
	return p
}

// solutionField returns the trailing "solution" member of a framed
// response. tdxd writes it last, so the document ends "<solution>}\n".
func solutionField(resp []byte) ([]byte, error) {
	const key = `,"solution":`
	i := bytes.LastIndex(resp, []byte(key))
	end := bytes.LastIndexByte(resp, '}')
	if i < 0 || end <= i+len(key) {
		return nil, errors.New("response carries no solution document")
	}
	return resp[i+len(key) : end], nil
}

// solutionLog records the digests of the ?solution=true documents seen
// during the window, per (script, delta position); they are checked
// against fresh runs once the window is over, so the checking does not
// compete with the daemon for the CPU.
type solutionLog struct {
	mu   sync.Mutex
	seen map[[2]int]map[[32]byte]int // responses per document digest
}

func (l *solutionLog) add(script, pos int, resp []byte) error {
	doc, err := solutionField(resp)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(doc)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[[2]int]map[[32]byte]int{}
	}
	k := [2]int{script, pos}
	if l.seen[k] == nil {
		l.seen[k] = map[[32]byte]int{}
	}
	l.seen[k][sum]++
	return nil
}

// tally is what a set of clients did in one phase.
type tally struct {
	latencies []time.Duration // measured requests that succeeded
	attempted int
	failed    int
	runs      int // requests through the run pipeline
	errs      []string
	elapsed   time.Duration
}

func (t *tally) merge(o tally) {
	t.latencies = append(t.latencies, o.latencies...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.runs += o.runs
	t.elapsed += o.elapsed
	t.errs = append(t.errs, o.errs...)
	if len(t.errs) > maxErrs {
		t.errs = t.errs[:maxErrs]
	}
}

// maxErrs bounds the failure messages a tally keeps.
const maxErrs = 5

// fail counts a failure and keeps the first few messages.
func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errs) < maxErrs {
		t.errs = append(t.errs, msg)
	}
}

func (t *tally) note(o outcome) {
	t.attempted++
	if o.run {
		t.runs++
	}
	if o.err != nil {
		t.fail(o.err.Error())
		return
	}
	if o.measured {
		t.latencies = append(t.latencies, o.latency)
	}
}

// drive runs every client's actor in a closed loop, one goroutine per
// client, until done reports true for the measured requests that
// succeeded and the requests attempted so far.
func drive(clients []*client, actors []actor, done func(measured, attempted int64) bool) tally {
	var (
		measured, attempted atomic.Int64
		wg                  sync.WaitGroup
		parts               = make([]tally, len(clients))
	)
	start := time.Now()
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for !done(measured.Load(), attempted.Load()) {
				o := actors[i].next(clients[i])
				parts[i].note(o)
				attempted.Add(1)
				if o.measured && o.err == nil {
					measured.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	var t tally
	for _, p := range parts {
		t.merge(p)
	}
	t.elapsed = time.Since(start)
	return t
}
