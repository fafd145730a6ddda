package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	tdx "repro"
	"repro/internal/instance"
	"repro/internal/jsonio"
)

// Envelope framing: response documents that embed a solution (or
// answers) document are assembled as a marshaled head struct — the small
// fields: hash, stats, elapsedMs — spliced with streamed tail fields
// written straight off the frozen columnar store via
// jsonio.EncodeCompactTo. The solution is encoded exactly once, to the
// socket; nothing re-marshals it as a json.RawMessage copy, so the
// serving layer never holds a solution-sized buffer. The wire bytes are
// identical to what the former writeJSON(struct{...RawMessage...})
// produced: json.Marshal compacts an embedded RawMessage, and
// EncodeCompactTo is byte-identical to json.Compact over the buffered
// document.

// tailDoc is one streamed tail field of a framed response: name is the
// JSON key, stream writes the field's value (one complete JSON value,
// compact).
type tailDoc struct {
	name   string
	stream func(io.Writer) error
}

// instanceDoc streams an instance's compact TDX JSON document.
func instanceDoc(i *tdx.Instance) func(io.Writer) error {
	return func(w io.Writer) error { return jsonio.EncodeCompactTo(w, i.Concrete()) }
}

// diffDoc streams the diff object of a delta response: counts first (so
// shell pipelines can grep emptiness), then the added and removed
// documents, each encoded straight from its store.
func diffDoc(diff *tdx.Diff) func(io.Writer) error {
	return func(w io.Writer) error {
		if _, err := fmt.Fprintf(w, `{"addedFacts":%d,"removedFacts":%d,"added":`, diff.Added.Len(), diff.Removed.Len()); err != nil {
			return err
		}
		if err := jsonio.EncodeCompactTo(w, diff.Added.Concrete()); err != nil {
			return err
		}
		if _, err := io.WriteString(w, `,"removed":`); err != nil {
			return err
		}
		if err := jsonio.EncodeCompactTo(w, diff.Removed.Concrete()); err != nil {
			return err
		}
		_, err := io.WriteString(w, "}")
		return err
	}
}

// snapshotFactsDoc streams the facts array of a snapshot response,
// marshaling one wire fact at a time instead of materializing the
// []snapshotFact mirror.
func snapshotFactsDoc(snap *instance.Snapshot) func(io.Writer) error {
	return func(w io.Writer) error {
		if _, err := io.WriteString(w, "["); err != nil {
			return err
		}
		for i, f := range snap.Facts() {
			args := make([]string, len(f.Args))
			for j, a := range f.Args {
				args[j] = a.String()
			}
			data, err := json.Marshal(snapshotFact{Rel: f.Rel, Args: args})
			if err != nil {
				return err
			}
			if i > 0 {
				if _, err := io.WriteString(w, ","); err != nil {
					return err
				}
			}
			if _, err := w.Write(data); err != nil {
				return err
			}
		}
		_, err := io.WriteString(w, "]")
		return err
	}
}

// marshalDoc renders any value through encoding/json as a tail field
// (used for fields that are small but ordered after a streamed one, like
// a snapshot's rendering string).
func marshalDoc(v any) func(io.Writer) error {
	return func(w io.Writer) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = w.Write(data)
		return err
	}
}

// writeFramed writes one response document: head's marshaled fields
// followed by the tail fields in order, closed with "}\n" like every
// other response. The document streams through a chunk-sized bufio
// writer, so the peak server-side buffer is one chunk no matter how
// large the solution is. A document that fits net/http's pre-chunking
// buffer (2 KB) still goes out with a Content-Length; larger ones are
// sent chunked.
func (s *Server) writeFramed(w http.ResponseWriter, status int, head any, tails []tailDoc) {
	headBytes, err := json.Marshal(head)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The status line is committed before the body exists, so a failure
	// past this point can only be logged, not reported — the client sees
	// a truncated document (and, over HTTP/1.1 chunked encoding, a
	// missing terminal chunk).
	w.WriteHeader(status)
	bw := bufio.NewWriterSize(w, flushChunk)
	if err := frameInto(bw, headBytes, tails); err != nil {
		s.logf("stream: response truncated: %v", err)
		return
	}
	if err := bw.Flush(); err != nil {
		s.logf("stream: response truncated: %v", err)
	}
}

// flushChunk sizes writeFramed's write buffer; it matches the
// encoder's internal chunk so socket writes stay large and regular.
const flushChunk = 32 << 10

// frameInto splices the marshaled head with the tail fields:
// {head...,"name1":doc1,...}\n.
func frameInto(w io.Writer, headBytes []byte, tails []tailDoc) error {
	if len(headBytes) < 2 || headBytes[0] != '{' || headBytes[len(headBytes)-1] != '}' {
		return fmt.Errorf("stream: head is not a JSON object: %.40s", headBytes)
	}
	// Drop the closing brace; the tails extend the same object.
	if _, err := w.Write(headBytes[:len(headBytes)-1]); err != nil {
		return err
	}
	for _, t := range tails {
		if _, err := fmt.Fprintf(w, ",%q:", t.name); err != nil {
			return err
		}
		if err := t.stream(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "}\n")
	return err
}

// loggingWriter observes the status and byte count of a response for the
// access log and the request counters. Unwrap keeps
// http.ResponseController features (the body read deadline) reachable.
type loggingWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (lw *loggingWriter) WriteHeader(code int) {
	if lw.status == 0 {
		lw.status = code
	}
	lw.ResponseWriter.WriteHeader(code)
}

func (lw *loggingWriter) Write(p []byte) (int, error) {
	if lw.status == 0 {
		lw.status = http.StatusOK
	}
	n, err := lw.ResponseWriter.Write(p)
	lw.bytes += int64(n)
	return n, err
}

func (lw *loggingWriter) Unwrap() http.ResponseWriter { return lw.ResponseWriter }

// observe wraps the routed handler with the request counter and, when
// configured, the structured access log: one key=value line per request
// with method, path, status, response bytes, and wall time.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		lw := &loggingWriter{ResponseWriter: w}
		started := time.Now()
		next.ServeHTTP(lw, r)
		s.requests.Add(1)
		if lw.status >= http.StatusInternalServerError {
			s.errors5xx.Add(1)
		}
		if s.cfg.AccessLogf != nil {
			status := lw.status
			if status == 0 {
				status = http.StatusOK
			}
			s.cfg.AccessLogf("access method=%s path=%s status=%d bytes=%d dur=%s",
				r.Method, r.URL.Path, status, lw.bytes, time.Since(started).Round(time.Microsecond))
		}
	})
}
