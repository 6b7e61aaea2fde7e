package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/server"
)

// Tracing times each layer from outside, at its public entry points:
// the client's request, the router's and the nodes' http.Handlers, and
// the router's node transport (cluster.Config.Client). Spans of one
// operation share the X-Request-Id the client sets and the router
// forwards. Spans stay in memory and are written out at the end.

// span is one timed interval at a layer boundary.
type span struct {
	Name   string `json:"name"` // client, router, subrequest or node
	RID    string `json:"rid"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Node spans also keep what the handler wrote: body bytes and the
	// engine's own took_ns and work counters.
	Bytes   int64  `json:"bytes,omitempty"`
	TookNS  int64  `json:"took_ns,omitempty"`
	Fetches uint64 `json:"posting_fetches,omitempty"`
	Rows    uint64 `json:"join_rows,omitempty"`
}

// tracer collects spans; a nil *tracer records nothing.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.base).Nanoseconds() }

func (t *tracer) add(s span) {
	s.Parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// client records the client span of one operation.
func (t *tracer) client(rid string, start time.Time, ns int64) {
	if t == nil {
		return
	}
	s := start.Sub(t.base).Nanoseconds()
	t.add(span{Name: "client", RID: rid, Start: s, End: s + ns})
}

// handler wraps an http.Handler in a span named name. With capture
// set, the response body is kept and its took_ns and stats recorded.
func (t *tracer) handler(name string, h http.Handler, capture bool) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &recorder{ResponseWriter: w, capture: capture}
		start := t.now()
		h.ServeHTTP(rec, r)
		s := span{Name: name, RID: r.Header.Get(server.RequestIDHeader), Start: start, End: t.now(), Bytes: rec.n}
		if capture {
			var body struct {
				TookNS int64             `json:"took_ns"`
				Stats  *server.StatsJSON `json:"stats"`
			}
			if json.Unmarshal(rec.buf.Bytes(), &body) == nil {
				s.TookNS = body.TookNS
				if body.Stats != nil {
					s.Fetches, s.Rows = body.Stats.PostingFetches, body.Stats.JoinRows
				}
			}
		}
		t.add(s)
	})
}

// recorder counts (and optionally keeps) the bytes a handler writes.
type recorder struct {
	http.ResponseWriter
	capture bool
	n       int64
	buf     bytes.Buffer
}

func (r *recorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.n += int64(n)
	if r.capture {
		r.buf.Write(b[:n])
	}
	return n, err
}

// transport wraps the router's node transport: a subrequest span runs
// from the request until the router closes the response body.
func (t *tracer) transport(rt http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		s := span{Name: "subrequest", RID: req.Header.Get(server.RequestIDHeader), Start: t.now()}
		resp, err := rt.RoundTrip(req)
		if err != nil {
			s.End = t.now()
			t.add(s)
			return resp, err
		}
		resp.Body = &spanBody{ReadCloser: resp.Body, t: t, s: s}
		return resp, nil
	})
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// spanBody ends its subrequest span when the body is closed.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	s    span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.s.End = b.t.now()
		b.t.add(b.s)
	})
	return err
}

// link sets each span's parent: the innermost span of the same request
// id that encloses it and belongs to the layer above.
func (t *tracer) link() map[string][]int {
	byRID := map[string][]int{}
	for i, s := range t.spans {
		byRID[s.RID] = append(byRID[s.RID], i)
	}
	above := map[string][]string{
		"router":     {"client"},
		"subrequest": {"router"},
		"node":       {"subrequest", "client"},
	}
	for _, idx := range byRID {
		for _, i := range idx {
			for _, want := range above[t.spans[i].Name] {
				for _, j := range idx {
					pj := t.spans[j]
					if pj.Name == want && pj.Start <= t.spans[i].Start && t.spans[i].End <= pj.End {
						t.spans[i].Parent = j
					}
				}
				if t.spans[i].Parent >= 0 {
					break
				}
			}
		}
	}
	return byRID
}

// selfNS is a span's duration minus the part its children cover.
func selfNS(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		iv = append(iv, [2]int64{max(c.Start, parent.Start), min(c.End, parent.End)})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, end int64 = 0, parent.Start
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		covered += v[1] - max(v[0], end)
		end = v[1]
	}
	return parent.End - parent.Start - covered
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
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
