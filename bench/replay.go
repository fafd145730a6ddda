package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	tdx "repro"
)

// span is one timed call of the traced replay. Spans of one replayed
// request share Op; a root span has Parent 0.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"` // since the replay began
	End      int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out when the
// benchmark ends.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{Workload: t.workload, ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans)
}

// end closes span id and returns its duration in milliseconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.origin))
	return float64(s.End-s.Start) / float64(time.Millisecond)
}

func (t *tracer) time(name string, parent, op int, fn func() error) (float64, error) {
	id := t.begin(name, parent, op)
	err := fn()
	return t.end(id), err
}

// replayer repeats a workload's first requests one at a time against
// the idle daemon, then runs each through the public tdx API in this
// process, one span per call, and checks that both agree.
type replayer struct {
	w       *workload
	c       *client
	hash    string
	ctx     context.Context
	ex      *tdx.Exchange // compiled the way tdxd compiles registered mappings
	tgdOnly *tdx.Exchange // the same mapping without its egds; nil when it has none
	tr      *tracer
	samples map[string][]float64
	decoded map[[32]byte]decodedSource
	hits    float64 // the daemon's source-cache hit counter at the last look
}

type decodedSource struct {
	src  *tdx.Instance
	cost float64 // ms spent decoding and freezing it
}

// maxDecoded bounds the replay's decoded sources like tdxd's 32-entry
// source cache; a workload whose bodies never repeat must not pile them
// up.
const maxDecoded = 32

func newReplayer(w *workload, c *client, hash string) (*replayer, error) {
	r := &replayer{
		w: w, c: c, hash: hash, ctx: context.Background(),
		tr:      &tracer{workload: w.name, origin: time.Now()},
		samples: map[string][]float64{},
		decoded: map[[32]byte]decodedSource{},
	}
	var err error
	if r.ex, err = tdx.Compile(w.mapping.text(), tdx.WithRunInterner()); err != nil {
		return nil, err
	}
	if w.mapping.egds != "" {
		if r.tgdOnly, err = tdx.Compile(w.mapping.withoutEgds(), tdx.WithRunInterner()); err != nil {
			return nil, err
		}
	}
	m, err := c.metrics()
	if err != nil {
		return nil, err
	}
	r.hits = m["tdxd_source_cache_hits_total"]
	return r, nil
}

func (r *replayer) add(metric string, v float64) { r.samples[metric] = append(r.samples[metric], v) }

// medians reduces the samples to the reported per-layer values.
func (r *replayer) medians() map[string]float64 {
	out := map[string]float64{}
	for k, xs := range r.samples {
		out[k] = median(xs)
	}
	fast, slow := len(r.samples["tdx.rundelta_fast_ms"]), len(r.samples["tdx.rundelta_fallback_ms"])
	if fast+slow > 0 {
		out["tdx.delta_fastpath_frac"] = float64(fast) / float64(fast+slow)
	}
	return out
}

// replay repeats the workload's first n measured requests.
func (r *replayer) replay(n int) tally {
	if r.w.session != nil {
		return r.replaySessions(n)
	}
	var t tally
	for id := 0; id < n; id++ {
		op := r.tr.begin("replay.op", 0, id)
		body := r.w.body(id)
		httpMs, resp, err := r.post(op, id, runPath(r.hash, r.w.query), r.w.contentType(), body, http.StatusOK, `{"hash":"`+r.hash+`"`)
		if err == nil {
			err = r.runOp(op, id, body, httpMs, resp)
		}
		r.tr.end(op)
		t.note(outcome{measured: true, run: true, err: err})
	}
	return t
}

// post sends one request in a server.http span and returns the span's
// duration and a copy of the checked response.
func (r *replayer) post(op, seq int, path, contentType string, body []byte, want int, prefix string) (float64, []byte, error) {
	var (
		st   int
		resp []byte
		err  error
	)
	ms, _ := r.tr.time("server.http", op, seq, func() error {
		st, resp, _, err = r.c.do("POST", path, contentType, body)
		return nil
	})
	resp = bytes.Clone(resp)
	return ms, resp, checkResponse(st, want, resp, err, prefix)
}

// runOp is one run request's in-process pipeline and check.
func (r *replayer) runOp(op, id int, body []byte, httpMs float64, resp []byte) error {
	serverDecoded, err := r.serverDecoded()
	if err != nil {
		return err
	}
	src, cost, err := r.source(op, id, body)
	if err != nil {
		return err
	}
	sol, pipeline, err := r.run(op, id, src)
	if err != nil {
		return err
	}
	if serverDecoded {
		pipeline += cost
	}
	var ans *tdx.Instance
	if r.w.query != "" {
		ms, err := r.tr.time("query.eval", op, id, func() (err error) {
			ans, err = r.ex.Query(r.ctx, sol, r.w.query)
			return err
		})
		if err != nil {
			return err
		}
		r.add("query.eval_ms", ms)
		pipeline += ms
	}
	ms, err := r.encode(op, id, sol.Len(), sol.WriteJSON)
	if err != nil {
		return err
	}
	r.add("server.http_ms", httpMs)
	r.add("server.self_ms", httpMs-pipeline-ms)
	r.addCounts(sol.Stats())

	var got struct {
		Solution json.RawMessage `json:"solution"`
		Answers  json.RawMessage `json:"answers"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return err
	}
	if err := sameDoc("solution", got.Solution, sol.WriteJSON); err != nil {
		return err
	}
	if ans != nil {
		return sameDoc("answers", got.Answers, ans.WriteJSON)
	}
	return nil
}

// serverDecoded reports whether tdxd decoded the last run request's
// body instead of taking it from its source cache.
func (r *replayer) serverDecoded() (bool, error) {
	m, err := r.c.metrics()
	if err != nil {
		return false, err
	}
	hits := m["tdxd_source_cache_hits_total"]
	decoded := hits == r.hits
	r.hits = hits
	return decoded, nil
}

// source decodes body the way tdxd does, once per distinct body as
// tdxd's source cache does, and returns the decode-and-freeze cost.
func (r *replayer) source(op, id int, body []byte) (*tdx.Instance, float64, error) {
	key := sha256.Sum256(body)
	if d, ok := r.decoded[key]; ok {
		return d.src, d.cost, nil
	}
	src, cost, err := r.decode(op, id, body, r.w.json)
	if err != nil {
		return nil, 0, err
	}
	if len(r.decoded) >= maxDecoded {
		clear(r.decoded)
	}
	r.decoded[key] = decodedSource{src: src, cost: cost}
	return src, cost, nil
}

// decode parses (fact text) or decodes (JSON) a body, then freezes it.
func (r *replayer) decode(op, id int, body []byte, jsonBody bool) (*tdx.Instance, float64, error) {
	var src *tdx.Instance
	name, metric := "parser.parse", "parser.parse_ms"
	if jsonBody {
		name, metric = "jsonio.decode", "jsonio.decode_ms"
	}
	dec, err := r.tr.time(name, op, id, func() (err error) {
		if jsonBody {
			src, err = r.ex.DecodeSourceJSON(bytes.NewReader(body))
		} else {
			src, err = r.ex.ParseSource(string(body))
		}
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	frz, _ := r.tr.time("storage.freeze", op, id, func() error { src.Freeze(); return nil })
	r.add(metric, dec)
	r.add("storage.freeze_ms", frz)
	return src, dec + frz, nil
}

// run times Normalize and Run, and the egd-free Run that splits the
// chase into its tgd and egd phases. It returns Run's time, the part of
// the pipeline tdxd also executes.
func (r *replayer) run(op, id int, src *tdx.Instance) (*tdx.Solution, float64, error) {
	normMs, err := r.tr.time("normalize.source", op, id, func() error {
		_, err := r.ex.Normalize(r.ctx, src)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	var sol *tdx.Solution
	runMs, err := r.tr.time("tdx.run", op, id, func() (err error) {
		sol, err = r.ex.Run(r.ctx, src)
		return err
	})
	if err != nil {
		return nil, 0, err
	}
	tgdRunMs, egdMs := runMs, 0.0
	if r.tgdOnly != nil {
		if tgdRunMs, err = r.tr.time("chase.tgd_only_run", op, id, func() error {
			_, err := r.tgdOnly.Run(r.ctx, src)
			return err
		}); err != nil {
			return nil, 0, err
		}
		egdMs = max(0, runMs-tgdRunMs)
	}
	r.add("normalize.source_ms", normMs)
	r.add("tdx.run_ms", runMs)
	r.add("chase.tgd_ms", max(0, tgdRunMs-normMs))
	r.add("chase.egd_ms", egdMs)
	if src.Len() > 0 {
		r.add("normalize.fragmentation", float64(sol.Stats().NormalizedSourceFacts)/float64(src.Len()))
	}
	return sol, runMs, nil
}

// encode times writing documents the way a response carries them, into
// a byte counter.
func (r *replayer) encode(op, id, facts int, docs ...func(io.Writer) error) (float64, error) {
	var n countWriter
	ms, err := r.tr.time("jsonio.encode", op, id, func() error {
		for _, write := range docs {
			if err := write(&n); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	r.add("jsonio.encode_ms", ms)
	if facts > 0 {
		r.add("jsonio.encode_bytes_per_fact", float64(n)/float64(facts))
	}
	return ms, nil
}

func (r *replayer) addCounts(st tdx.Stats) {
	r.add("chase.tgd_fires", float64(st.TGDFires))
	if st.TGDHoms > 0 {
		r.add("chase.fire_ratio", float64(st.TGDFires)/float64(st.TGDHoms))
	}
	r.add("chase.nulls_created", float64(st.NullsCreated))
	r.add("chase.egd_rounds", float64(st.EgdRounds))
	r.add("chase.egd_merges", float64(st.EgdMerges))
	r.add("chase.rows_rewritten", float64(st.RowsRewritten))
}

// replaySessions plays session scripts 0, 1, ... from the start until n
// deltas have been posted, chaining RunDelta in process alongside.
func (r *replayer) replaySessions(n int) tally {
	var t tally
	p := r.w.session
	seq := 0 // op id: every replayed request
	for k, deltas := 0, 0; deltas < n; k++ {
		script := p.scripts[k%len(p.scripts)]
		id, sol, err := r.openOp(seq)
		seq++
		t.note(outcome{run: true, err: err})
		if err != nil {
			return t
		}
		for pos := 0; pos < len(script) && deltas < n; pos++ {
			next, err := r.deltaOp(seq, id, sol, script[pos])
			seq++
			deltas++
			t.note(outcome{measured: true, err: err})
			if err != nil {
				break // the server's session and ours have diverged
			}
			sol = next
		}
		t.note(outcome{err: deleteSession(r.c, id)})
	}
	return t
}

// openOp opens a session over the base and runs the base in process.
func (r *replayer) openOp(seq int) (string, *tdx.Solution, error) {
	op := r.tr.begin("replay.op", 0, seq)
	defer r.tr.end(op)
	base := r.w.session.baseBody
	_, resp, err := r.post(op, seq, "/v1/exchanges/"+r.hash+"/sessions", "text/plain", base, http.StatusCreated, `{"sessionId":"`)
	if err != nil {
		return "", nil, fmt.Errorf("open session: %w", err)
	}
	var got struct {
		SessionID string          `json:"sessionId"`
		Solution  json.RawMessage `json:"solution"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return "", nil, err
	}
	src, _, err := r.source(op, seq, base)
	if err != nil {
		return "", nil, err
	}
	sol, _, err := r.run(op, seq, src)
	if err != nil {
		return "", nil, err
	}
	return got.SessionID, sol, sameDoc("session solution", got.Solution, sol.WriteJSON)
}

// deltaOp posts one delta and chains RunDelta over sol in process.
func (r *replayer) deltaOp(seq int, id string, sol *tdx.Solution, d delta) (*tdx.Solution, error) {
	op := r.tr.begin("replay.op", 0, seq)
	defer r.tr.end(op)
	httpMs, resp, err := r.post(op, seq, deltaPath(id, d.solution), "text/plain", d.body, http.StatusOK, `{"sessionId":"`+id+`"`)
	if err != nil {
		return nil, err
	}
	src, pipeline, err := r.decode(op, seq, d.body, false)
	if err != nil {
		return nil, err
	}
	var (
		next *tdx.Solution
		diff *tdx.Diff
	)
	deltaMs, err := r.tr.time("tdx.rundelta", op, seq, func() (err error) {
		next, diff, err = r.ex.RunDelta(r.ctx, sol, src)
		return err
	})
	if err != nil {
		return nil, err
	}
	st2 := next.Stats()
	if st2.FallbackFullChase {
		r.add("tdx.rundelta_fallback_ms", deltaMs)
	} else {
		r.add("tdx.rundelta_fast_ms", deltaMs)
	}
	docs := []func(io.Writer) error{diff.Added.WriteJSON, diff.Removed.WriteJSON}
	facts := diff.Added.Len() + diff.Removed.Len()
	if d.solution {
		docs = append(docs, next.WriteJSON)
		facts += next.Len()
	}
	encMs, err := r.encode(op, seq, facts, docs...)
	if err != nil {
		return nil, err
	}
	r.add("server.http_ms", httpMs)
	r.add("server.self_ms", httpMs-pipeline-deltaMs-encMs)
	r.addCounts(st2)
	r.add("chase.delta_fires", float64(st2.DeltaFires))
	r.add("chase.base_rows_rewritten", float64(st2.BaseRowsRewritten))

	var got struct {
		Diff     json.RawMessage `json:"diff"`
		Solution json.RawMessage `json:"solution"`
	}
	if err := json.Unmarshal(resp, &got); err != nil {
		return nil, err
	}
	added, err := compactDoc(diff.Added.WriteJSON)
	if err != nil {
		return nil, err
	}
	removed, err := compactDoc(diff.Removed.WriteJSON)
	if err != nil {
		return nil, err
	}
	wantDiff := fmt.Sprintf(`{"addedFacts":%d,"removedFacts":%d,"added":%s,"removed":%s}`, diff.Added.Len(), diff.Removed.Len(), added, removed)
	if err := sameDoc("diff", got.Diff, func(w io.Writer) error {
		_, err := io.WriteString(w, wantDiff)
		return err
	}); err != nil {
		return nil, err
	}
	if d.solution {
		if err := sameDoc("delta solution", got.Solution, next.WriteJSON); err != nil {
			return nil, err
		}
	}
	return next, nil
}

// verify checks every recorded ?solution=true document against a fresh
// in-process run over the base plus the deltas up to it, and returns
// how many recorded responses were wrong.
func (l *solutionLog) verify(w *workload) (int, error) {
	ex, err := tdx.Compile(w.mapping.text(), tdx.WithRunInterner())
	if err != nil {
		return 0, err
	}
	wrong := 0
	for k, sums := range l.seen {
		src, err := ex.ParseSource(w.session.sourceThrough(k[0], k[1]))
		if err != nil {
			return 0, err
		}
		sol, err := ex.Run(context.Background(), src)
		if err != nil {
			return 0, err
		}
		doc, err := compactDoc(sol.WriteJSON)
		if err != nil {
			return 0, err
		}
		want := sha256.Sum256(doc)
		for sum, n := range sums {
			if sum != want {
				wrong += n
			}
		}
	}
	return wrong, nil
}

// compactDoc renders a document and compacts it, the form tdxd's
// responses embed.
func compactDoc(write func(io.Writer) error) ([]byte, error) {
	var raw, out bytes.Buffer
	if err := write(&raw); err != nil {
		return nil, err
	}
	if err := json.Compact(&out, raw.Bytes()); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// sameDoc checks that the server's document equals the in-process one
// after JSON normalization.
func sameDoc(field string, got json.RawMessage, write func(io.Writer) error) error {
	want, err := compactDoc(write)
	if err != nil {
		return err
	}
	var g bytes.Buffer
	if err := json.Compact(&g, got); err != nil {
		return fmt.Errorf("%s: %w", field, err)
	}
	if !bytes.Equal(g.Bytes(), want) {
		return fmt.Errorf("%s differs from the in-process result", field)
	}
	return nil
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
