package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the client's request ID, shared by every span of one
// request.
const reqHeader = "X-Tsdload-Request"

// maxSpans bounds the in-memory span buffer; spans past it are counted,
// not kept.
const maxSpans = 600_000

// span is one timed call at a layer boundary.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans and counter samples in memory; write flushes them
// as JSON lines when the run ends. The benchmark records every span
// itself, around the calls it makes into each layer.
type tracer struct {
	t0      time.Time
	on      atomic.Bool   // HTTP middleware records only while on
	replay  atomic.Uint64 // request ID of the sequential cluster replay in flight
	mu      sync.Mutex
	spans   []span
	dropped int
	counts  map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: make(map[string][]float64)}
}

func (t *tracer) add(name, parent string, req uint64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Req: req,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// time runs f inside a span.
func (t *tracer) time(name, parent string, req uint64, f func()) {
	start := time.Now()
	f()
	t.add(name, parent, req, start, time.Now())
}

// count records one sample of a counter measured at a layer boundary.
func (t *tracer) count(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[name] = append(t.counts[name], v)
}

// named returns a copy of every span named name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every span named name, in the unit
// given (e.g. time.Microsecond).
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.dur())/float64(unit))
	}
	return out
}

// byReq indexes the spans named name by request ID (the last one wins).
func (t *tracer) byReq(name string) map[uint64]span {
	out := make(map[uint64]span)
	for _, s := range t.named(name) {
		if s.Req != 0 {
			out[s.Req] = s
		}
	}
	return out
}

func (t *tracer) samples(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.counts[name]...)
}

// middleware records one span per request around h while the tracer is
// on, tagged with the client's request ID.
func (t *tracer) middleware(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64) // absent: 0
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(name, parent, id, start, time.Now())
	})
}

// shardMiddleware records a cluster.shard span per shard request. The
// coordinator does not forward the client's request ID, so shard spans
// carry the ID of the sequential replay in flight (0 under live load).
func (t *tracer) shardMiddleware(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add("cluster.shard", "server.handler", t.replay.Load(), start, time.Now())
	})
}

// write flushes every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
