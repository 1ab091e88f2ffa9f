package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// client is a load-generator client: keep-alive connections to one base
// URL, one per closed-loop client.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return &client{hc: &http.Client{Transport: tr}, base: base}
}

func (c *client) closeIdle() { c.hc.CloseIdleConnections() }

// reply is a fully read response.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// do sends one request and reads the whole body. req, when non-zero,
// travels as the request id.
func (c *client) do(method, path string, body []byte, req int64) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hr, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	if req != 0 {
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		return reply{}, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: data, header: resp.Header}, nil
}

// post sends a request and fails on transport errors and non-2xx answers.
func (c *client) post(path string, body []byte, req int64) (reply, error) {
	r, err := c.do(http.MethodPost, path, body, req)
	if err != nil {
		return r, err
	}
	if r.status/100 != 2 {
		return r, fmt.Errorf("POST %s: status %d: %s", path, r.status, truncate(r.body))
	}
	return r, nil
}

func truncate(b []byte) string {
	if len(b) > 300 {
		return string(b[:300]) + "..."
	}
	return string(b)
}

// waitReady polls GET /readyz?gen=n until it answers 200.
func (c *client) waitReady(gen int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		r, err := c.do(http.MethodGet, "/readyz?gen="+strconv.Itoa(gen), nil, 0)
		if err == nil && r.status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("readyz?gen=%d not ready after %v (last: %v %s)", gen, timeout, err, truncate(r.body))
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// sample is one timed client operation. It holds no pointers, so the
// sample buffers cost the collector nothing to scan.
type sample struct {
	req    int64 // request id, also the id of its client span
	op     int   // index into the workload's op table
	start  int64 // ns on the tracer clock
	end    int64
	bytes  int
	ok     bool
	traced bool // tracing was on when the request was sent
}

func (s sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// samplesPerClientSecond sizes the sample buffers: about eight times the
// fastest workload's rate per client, so the buffers do not grow during
// the window and the live heap there is the program's.
const samplesPerClientSecond = 5000

// recorder is one client's sample buffer and failure messages, allocated
// before the program is built.
type recorder struct {
	samples []sample
	fails   []string
}

func newRecorders(cfg config, n int) []*recorder {
	out := make([]*recorder, n)
	for i := range out {
		out[i] = &recorder{samples: make([]sample, 0, cfg.seconds*samplesPerClientSecond)}
	}
	return out
}

func (r *recorder) record(s sample, err error) {
	if err != nil {
		r.fails = append(r.fails, err.Error())
	}
	r.samples = append(r.samples, s)
}

// closedLoop runs one closed-loop client per recorder until dur has
// elapsed: each sends its next request only after the previous one
// completed. next(c) draws client c's next op from its own seeded stream;
// send issues it. Samples come back ordered by start time.
func closedLoop(t *tracer, recs []*recorder, dur time.Duration, next func(c int) int,
	send func(op int, req int64) (int, error)) []sample {
	deadline := t.now() + int64(dur)
	var wg sync.WaitGroup
	for c, rec := range recs {
		wg.Add(1)
		go func(c int, rec *recorder) {
			defer wg.Done()
			for t.now() < deadline {
				op := next(c)
				req := t.newID()
				traced := t.on.Load()
				start := t.now()
				n, err := send(op, req)
				rec.record(sample{req: req, op: op, start: start, end: t.now(), bytes: n, ok: err == nil, traced: traced}, err)
			}
		}(c, rec)
	}
	wg.Wait()
	return merged(recs)
}

// merged returns the samples of recs ordered by start time.
func merged(recs []*recorder) []sample {
	var out []sample
	for _, r := range recs {
		out = append(out, r.samples...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].start < out[j].start })
	return out
}

// tally counts the samples of recs as attempted and failed operations.
func tally(res *result, recs []*recorder) {
	for _, r := range recs {
		for _, s := range r.samples {
			res.attempted++
			if !s.ok {
				res.failed++
			}
		}
		for _, msg := range r.fails {
			res.noteFailure(msg)
		}
	}
}

// summarize folds the samples of one window into the common end-to-end
// metrics; isRead selects the samples latency is reported for (nil: all).
func summarize(res *result, samples []sample, window time.Duration, isRead func(sample) bool) {
	var lat dist
	ok := 0
	for _, s := range samples {
		if !s.ok {
			continue
		}
		ok++
		if isRead == nil || isRead(s) {
			lat.add(s.ms())
		}
	}
	res.e2e("ops_per_s", "1/s", float64(ok)/window.Seconds())
	res.pct("latency_p50_ms", "ms", &lat, 0.50)
	res.pct("latency_p90_ms", "ms", &lat, 0.90)
	res.pct("latency_p99_ms", "ms", &lat, 0.99)
}
