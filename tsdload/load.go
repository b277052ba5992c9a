package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"trussdiv/internal/graph"
)

// Per-client reservoir sizes of answers kept for the oracle.
var keepPerKind = [numKinds]int{kindTopR: 12, kindScore: 40, kindContexts: 40, kindBatch: 4}

// answer is one response kept for the oracle.
type answer struct {
	req   request
	body  []byte
	epoch uint64 // single-node point answers under writes: the bracketed epoch, 0 = unknown
}

// logged is one traced request, kept for the in-process replays.
type logged struct {
	id  uint64
	req request
}

// appliedBatch is one update batch the node accepted.
type appliedBatch struct {
	epoch    uint64
	ins, del []graph.Edge
}

// window is what one timed window measured.
type window struct {
	lat       [numKinds][]float64 // ms, client round trips
	reads     int
	attempted int
	failed    int
	elapsed   float64 // s
	answers   []answer
	logged    []logged
	apply     []float64 // ms, from the moment each batch was due
	late      []float64 // ms, how late the writer sent each batch
	batches   []appliedBatch
	notSteady bool // the writer's backlog grew
	errs      []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func (w *window) merge(o *window) {
	for k := range w.lat {
		w.lat[k] = append(w.lat[k], o.lat[k]...)
	}
	w.reads += o.reads
	w.attempted += o.attempted
	w.failed += o.failed
	w.answers = append(w.answers, o.answers...)
	w.logged = append(w.logged, o.logged...)
	w.apply = append(w.apply, o.apply...)
	w.late = append(w.late, o.late...)
	w.batches = append(w.batches, o.batches...)
	w.notSteady = w.notSteady || o.notSteady
	for _, e := range o.errs {
		if len(w.errs) < 5 {
			w.errs = append(w.errs, e)
		}
	}
}

// driver sends the workload's traffic to one stack over loopback HTTP.
type driver struct {
	base    string
	cluster bool // batches go out as concurrent /topr (the tier has no /batch)
	hc      *http.Client
	space   *space
	seed    int64
	clients int
	writer  bool // mixed-apply: one of the clients is an open-loop writer
	period  time.Duration
	edges   *edgeState
	epoch   atomic.Uint64 // node epoch after the writer's last batch
	seq     atomic.Uint64 // odd while a batch is in flight
	nextID  atomic.Uint64
	tr      *tracer // traced run: client spans and the replay sample
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// run drives one closed-loop window of d on request streams
// [stream, stream+readers): each reader sends its next request only after
// the previous one completes.
func (d *driver) run(dur time.Duration, stream int) *window {
	readers := d.clients
	if d.writer {
		readers = max(1, d.clients-1)
	}
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]*window, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		parts[i] = &window{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d.reader(parts[i], stream+i, deadline)
		}(i)
	}
	wr := &window{}
	if d.writer {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.write(wr, start, deadline)
		}()
	}
	wg.Wait()
	out := &window{elapsed: time.Since(start).Seconds()}
	for _, p := range append(parts, wr) {
		out.merge(p)
	}
	return out
}

func (d *driver) reader(w *window, stream int, deadline time.Time) {
	gen := d.space.generator(d.seed, stream)
	keep := rand.New(rand.NewSource(d.seed*131 + int64(stream)))
	var seen [numKinds]int
	var kept [numKinds][]answer
	defer func() {
		for _, as := range kept {
			w.answers = append(w.answers, as...)
		}
	}()
	for time.Now().Before(deadline) {
		req := gen.next()
		id := d.nextID.Add(1)
		var epoch uint64
		before := d.seq.Load()
		t0 := time.Now()
		body, ok := d.send(w, id, &req)
		t1 := time.Now()
		lat := t1.Sub(t0)
		if d.tr != nil && d.tr.on.Load() {
			d.tr.add("client", "", id, t0, t1)
		}
		if d.writer && (req.kind == kindScore || req.kind == kindContexts) {
			// Point answers carry no epoch: one is checkable only when no
			// update was in flight or landed while it ran (seqlock).
			e := d.epoch.Load()
			if after := d.seq.Load(); after == before && after%2 == 0 {
				epoch = e
			}
		}
		w.attempted++
		if !ok {
			continue
		}
		w.reads++
		w.lat[req.kind] = append(w.lat[req.kind], float64(lat)/1e6)
		// Reservoir-sample answers for the oracle and requests for replay.
		seen[req.kind]++
		a := answer{req: req, body: body, epoch: epoch}
		if n := seen[req.kind]; n <= keepPerKind[req.kind] {
			kept[req.kind] = append(kept[req.kind], a)
		} else if j := keep.Intn(n); j < keepPerKind[req.kind] {
			kept[req.kind][j] = a
		}
		if d.tr != nil && d.tr.on.Load() {
			total := seen[kindTopR] + seen[kindScore] + seen[kindContexts] + seen[kindBatch]
			if len(w.logged) < maxLogged {
				w.logged = append(w.logged, logged{id: id, req: req})
			} else if j := keep.Intn(total); j < maxLogged {
				w.logged[j] = logged{id: id, req: req}
			}
		}
	}
}

// maxLogged bounds the per-client sample of traced requests replayed
// in process.
const maxLogged = 150

// send issues one read request and returns its body; failures are
// recorded on w.
func (d *driver) send(w *window, id uint64, req *request) ([]byte, bool) {
	switch {
	case req.kind != kindBatch:
		return d.get(w, id, req.path())
	case d.cluster:
		// The cluster tier has no /batch: a client batches by sending the 8
		// queries concurrently; the batch completes with its last answer.
		bodies := make([][]byte, len(req.batch))
		oks := make([]bool, len(req.batch))
		var wg sync.WaitGroup
		for i, q := range req.batch {
			wg.Add(1)
			go func(i int, q query) {
				defer wg.Done()
				sub := &window{}
				bodies[i], oks[i] = d.get(sub, id, (&request{kind: kindTopR, q: q}).path())
				if !oks[i] {
					bodies[i] = []byte(sub.errs[0])
				}
			}(i, q)
		}
		wg.Wait()
		for i, ok := range oks {
			if !ok {
				w.fail("batch query %d: %s", i, bodies[i])
				return nil, false
			}
		}
		// Kept as a /batch-shaped body so the oracle reads one format.
		var buf bytes.Buffer
		buf.WriteString(`{"results":[`)
		for i, b := range bodies {
			if i > 0 {
				buf.WriteByte(',')
			}
			buf.Write(bytes.TrimSpace(b))
		}
		buf.WriteString("]}")
		return buf.Bytes(), true
	default:
		payload, err := json.Marshal(map[string]any{"queries": req.batch})
		if err != nil {
			panic(err) // unreachable: plain structs
		}
		return d.do(w, id, http.MethodPost, "/batch", payload)
	}
}

func (d *driver) get(w *window, id uint64, path string) ([]byte, bool) {
	return d.do(w, id, http.MethodGet, path, nil)
}

func (d *driver) do(w *window, id uint64, method, path string, payload []byte) ([]byte, bool) {
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	hr, err := http.NewRequest(method, d.base+path, rd)
	if err != nil {
		w.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	hr.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	resp, err := d.hc.Do(hr)
	if err != nil {
		w.fail("%s %s: %v", method, path, err)
		return nil, false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		w.fail("%s %s: read body: %v", method, path, err)
		return nil, false
	}
	if resp.StatusCode/100 != 2 {
		w.fail("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(body))
		return nil, false
	}
	return body, true
}

// applyBatch POSTs one update batch and returns the node's new epoch.
func (d *driver) applyBatch(w *window, ins, del []graph.Edge) (uint64, bool) {
	type wireEdge struct {
		U int32 `json:"u"`
		V int32 `json:"v"`
	}
	conv := func(es []graph.Edge) []wireEdge {
		out := make([]wireEdge, len(es))
		for i, e := range es {
			out[i] = wireEdge{e.U, e.V}
		}
		return out
	}
	payload, err := json.Marshal(map[string]any{"insert": conv(ins), "delete": conv(del)})
	if err != nil {
		panic(err) // unreachable: plain structs
	}
	body, ok := d.do(w, d.nextID.Add(1), http.MethodPost, "/edges", payload)
	if !ok {
		return 0, false
	}
	var resp struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		w.fail("/edges: decode: %v", err)
		return 0, false
	}
	return resp.Epoch, true
}

// postBatch sends the next generated batch, bumping the seqlock around it
// so concurrent point answers know whether an update overlapped them.
func (d *driver) postBatch(w *window) bool {
	ins, del := d.edges.nextBatch()
	d.seq.Add(1)
	epoch, ok := d.applyBatch(w, ins, del)
	w.attempted++
	if ok {
		if prev := d.epoch.Load(); epoch != prev+1 {
			w.fail("/edges: epoch %d after %d, want +1", epoch, prev)
			ok = false
		} else {
			d.epoch.Store(epoch)
			d.edges.commit(ins, del)
			w.batches = append(w.batches, appliedBatch{epoch: epoch, ins: ins, del: del})
		}
	}
	d.seq.Add(1)
	return ok
}

// write is the open-loop writer: batch i is due at start + i*period and is
// sent then, or as soon as the previous one returns when it runs late.
// Apply latency counts from the due time, so a stall shows in later
// batches too.
func (d *driver) write(w *window, start, deadline time.Time) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * d.period)
		if !due.Before(deadline) {
			break
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		w.late = append(w.late, float64(time.Since(due))/1e6)
		if d.postBatch(w) {
			w.apply = append(w.apply, float64(time.Since(due))/1e6)
		}
	}
	// The backlog grew when the writer ended the window more than a period
	// behind its schedule on average over its last quarter.
	if n := len(w.late); n >= 4 {
		if mean(w.late[n-n/4:]) > float64(d.period)/1e6 {
			w.notSteady = true
		}
	}
}

// finalChecks asks the node, once the writer has stopped, for a fixed set
// of answers and compares them with a cold DB on the final graph, and
// checks that the node's graph is the one the recorded batches produce.
func (d *driver) finalChecks(o *oracle, w *window, rng *rand.Rand) {
	final := d.epoch.Load()
	g, err := o.graphAt(final)
	if err != nil {
		o.mismatch("final graph: %v", err)
		return
	}
	for i := 0; i < 3; i++ {
		q := d.space.keys[rng.Intn(len(d.space.keys))]
		w.attempted++
		body, ok := d.get(w, d.nextID.Add(1), (&request{kind: kindTopR, q: q}).path())
		if !ok {
			continue
		}
		var got wireTopR
		if err := json.Unmarshal(body, &got); err != nil {
			o.mismatch("final topr: decode: %v", err)
			continue
		}
		if got.Epoch != final {
			o.mismatch("final topr answered at epoch %d, want %d", got.Epoch, final)
			continue
		}
		o.checkTopR(q, got)
	}
	for i := 0; i < 30; i++ {
		req := request{kind: kindScore + kind(i%2), v: int32(rng.Intn(g.N())),
			k: []int32{0, 3, 4, 5}[rng.Intn(4)], measure: allMeasures[rng.Intn(3)]}
		w.attempted++
		body, ok := d.get(w, d.nextID.Add(1), req.path())
		if !ok {
			continue
		}
		var got wirePoint
		if err := json.Unmarshal(body, &got); err != nil {
			o.mismatch("final %s: decode: %v", kindNames[req.kind], err)
			continue
		}
		o.checkPoint(req, got, final)
	}
}

// probe applies batches back to back on an otherwise idle stack for dur
// (at least one batch): each batch is due when the previous one returned.
func (d *driver) probe(dur time.Duration) *window {
	w := &window{}
	due := time.Now()
	for deadline := due.Add(dur); len(w.late) == 0 || time.Now().Before(deadline); {
		w.late = append(w.late, float64(time.Since(due))/1e6)
		if d.postBatch(w) {
			w.apply = append(w.apply, float64(time.Since(due))/1e6)
		}
		due = time.Now()
	}
	return w
}

// Statistics.

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// pct is the nearest-rank q-quantile of xs (0 for no samples).
func pct(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
