package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Spans of one client request
// share Req; Parent links a span to the span that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // operator family of plan.execute spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int    `json:"bytes,omitempty"`
}

func (s span) iv() interval { return interval{s.Start, s.End} }

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out once the run ends so
// that recording costs one append under a mutex.
type tracer struct {
	base time.Time
	ids  atomic.Int64
	mu   sync.Mutex
	on   atomic.Bool
	all  []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.all = append(t.all, s)
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name, kind string, parent, req int64, fn func()) {
	id := t.newID()
	start := t.now()
	fn()
	t.add(span{ID: id, Parent: parent, Req: req, Name: name, Kind: kind, Start: start, End: t.now()})
}

func (t *tracer) spans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Request-scoped trace identity travels in headers between processes'
// handlers (the benchmark's own client and transport set them) and in the
// context inside one handler.
const (
	hdrReq    = "X-Request-Id"
	hdrParent = "X-Bench-Parent-Span"
)

type ctxKey struct{}

type spanRef struct{ id, req int64 }

// traceHandler wraps a program handler from outside and, while tracing is
// on, records one span per request under name.
func (t *tracer) traceHandler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		if parent == 0 {
			parent = req // the client span's id is the request id
		}
		id := t.newID()
		cw := &countingWriter{ResponseWriter: w}
		start := t.now()
		h.ServeHTTP(cw, r.WithContext(context.WithValue(r.Context(), ctxKey{}, spanRef{id, req})))
		t.add(span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: t.now(), Bytes: cw.n})
	})
}

// countingWriter counts response body bytes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

// traceTransport wraps the router's outgoing transport: a call made on
// behalf of a traced request becomes a child span of the router's span,
// and the shard handler learns its parent through the headers.
type traceTransport struct {
	t    *tracer
	name string
	next http.RoundTripper
}

func (tt *traceTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	ref, ok := r.Context().Value(ctxKey{}).(spanRef)
	if !ok || !tt.t.on.Load() {
		return tt.next.RoundTrip(r)
	}
	id := tt.t.newID()
	r = r.Clone(r.Context())
	r.Header.Set(hdrReq, strconv.FormatInt(ref.req, 10))
	r.Header.Set(hdrParent, strconv.FormatInt(id, 10))
	start := tt.t.now()
	resp, err := tt.next.RoundTrip(r)
	if err != nil {
		tt.t.add(span{ID: id, Parent: ref.id, Req: ref.req, Name: tt.name, Start: start, End: tt.t.now()})
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, done: func(n int) {
		tt.t.add(span{ID: id, Parent: ref.id, Req: ref.req, Name: tt.name, Start: start, End: tt.t.now(), Bytes: n})
	}}
	return resp, nil
}

// spanBody ends its span when the caller closes the body, so the span
// covers the full read.
type spanBody struct {
	io.ReadCloser
	n    int
	once sync.Once
	done func(int)
}

func (b *spanBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += n
	return n, err
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}

// countingListener counts accepted connections, i.e. the TCP connections
// a server had to set up.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// endpoint is one program handler served on a loopback listener.
type endpoint struct {
	URL string
	ln  *countingListener
	hs  *http.Server
	wg  sync.WaitGroup
}

func serve(h http.Handler) (*endpoint, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	ep := &endpoint{URL: "http://" + ln.Addr().String(), ln: &countingListener{Listener: ln},
		hs: &http.Server{Handler: h}}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		ep.hs.Serve(ep.ln)
	}()
	return ep, nil
}

// close stops the listener and every connection and waits for Serve to
// return.
func (ep *endpoint) close() {
	ep.hs.Close()
	ep.wg.Wait()
}
