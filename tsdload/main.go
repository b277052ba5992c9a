// Command tsdload is the repository's end-to-end benchmark: a
// single-process load driver that generates its inputs from a seed,
// drives the real serving stack (internal/server, or internal/cluster's
// coordinator over two shard workers) over loopback HTTP, checks the
// answers against an independent oracle after the timed window, and
// prints every metric by name with its unit. See README.md.
//
//	bash tsdload/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// With --trace 0 it carries the end-to-end metrics of an untraced run;
// with --trace 1, the per-layer metrics of a traced run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"trussdiv"
	"trussdiv/internal/graph"
	"trussdiv/internal/store"
)

const (
	wlServeWarm  = "serve-warm"
	wlScanCold   = "scan-cold"
	wlMixedApply = "mixed-apply"
	wlCluster    = "cluster-2shard"
)

// workloads are the workloads the driver serves. BENCHMARK.json gates all
// but cluster-2shard: each of its requests crosses three loopback HTTP
// hops and a fan-out, and on a shared 2-core VM its topr_p50_ms moved
// between runs by 0.22 of its median (IQR over 10 seeds), while in the
// same runs the gated workloads stayed at or below 0.17 (README.md). Its
// layers stay measured in every traced run, through the 2-shard replay.
var workloads = []string{wlServeWarm, wlScanCold, wlMixedApply, wlCluster}

// metricSpec names one reported metric.
type metricSpec struct {
	name, unit string
}

// endToEnd are the metrics of an untraced run, as a user of the service
// sees them. Tails are reported at p90, and update latency only in the
// traced run: on a 2-core machine shared with other tenants, the p99 of
// each request class moved by 0.3-0.7 of its median between runs and
// the apply latency by 0.1-0.6, the read p90s by under 0.25 (README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"}, {"heap_mb", "MB"}, {"read_qps", "1/s"},
	{"topr_p50_ms", "ms"}, {"topr_p90_ms", "ms"},
	{"point_p50_ms", "ms"}, {"point_p90_ms", "ms"},
	{"batch_p50_ms", "ms"}, {"batch_p90_ms", "ms"},
}

// perLayer are the metrics of a traced run, one layer at a time.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"server.handler_p50_us", "us"}, {"server.transport_p50_us", "us"}, {"server.self_p50_us", "us"},
		{"route.p50_us", "us"},
	}
	for _, e := range []string{"online", "bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"} {
		specs = append(specs, metricSpec{"route.engine." + e, "count"})
	}
	specs = append(specs, metricSpec{"resultcache.hit_ratio", "ratio"}, metricSpec{"resultcache.invalidated", "count"},
		metricSpec{"apply_p50_ms", "ms"}, metricSpec{"apply_p90_ms", "ms"}, metricSpec{"db.apply_p50_ms", "ms"})
	for _, e := range profiledEngines {
		specs = append(specs, metricSpec{"engine." + e + ".p50_us", "us"})
	}
	specs = append(specs,
		metricSpec{"core.scored_per_query", "count"}, metricSpec{"core.prune_ratio", "ratio"},
		metricSpec{"core.contexts_p50_us", "us"}, metricSpec{"core.buildall_ms", "ms"},
		metricSpec{"ego.extract_p50_us", "us"}, metricSpec{"ego.edges_mean", "count"},
		metricSpec{"truss.decompose_p50_us", "us"}, metricSpec{"truss.components_p50_us", "us"},
		metricSpec{"truss.global_decompose_ms", "ms"}, metricSpec{"truss.repair_ms", "ms"},
		metricSpec{"truss.repair_region", "count"},
		metricSpec{"kcore.decompose_p50_us", "us"}, metricSpec{"kcore.components_p50_us", "us"},
		metricSpec{"apply.edits_ms", "ms"}, metricSpec{"apply.affected", "count"},
		metricSpec{"core.index_update_ms", "ms"}, metricSpec{"core.patch_ms", "ms"},
		metricSpec{"apply.late_p90_ms", "ms"},
		metricSpec{"store.open_ms", "ms"})
	for _, s := range storeSections {
		specs = append(specs, metricSpec{"store.section_load_us." + s, "us"})
	}
	specs = append(specs, metricSpec{"store.payload_reads", "count"},
		metricSpec{"cluster.shard_p50_ms", "ms"}, metricSpec{"cluster.merge_p50_us", "us"},
		metricSpec{"cluster.hedges", "count"}, metricSpec{"cluster.retries", "count"},
		metricSpec{"cluster.failures", "count"},
		metricSpec{"error_rate", "ratio"})
	for _, m := range overheadMetrics {
		specs = append(specs, metricSpec{"trace_overhead." + m.name, m.unit})
	}
	return specs
}()

// warmupStream is the first request stream of the warm-up; the measured
// windows draw streams from 0 (untraced) and 1000 (traced).
const warmupStream = 2000

// probeShare is the part of the measured time a traced run on a
// read-only workload spends applying update batches after the window.
const probeShare = 0.4

// gitCommit is stamped by run.sh (-ldflags -X); "unknown" outside a git
// checkout.
var gitCommit = "unknown"

var storeSections = []string{"gct", "rankings", "rankings_component", "rankings_core", "pfree"}

// overheadMetrics are the window metrics compared between the traced run
// and an untraced reference window of the same length.
var overheadMetrics = []metricSpec{
	{"read_qps", "1/s"}, {"topr_p50_ms", "ms"}, {"point_p50_ms", "ms"}, {"batch_p50_ms", "ms"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	n        int           // graph vertex count
	clients  int           // closed-loop clients, and connections
	period   time.Duration // mixed-apply: one update batch due every period
	warmup   time.Duration // untimed traffic before the measured window
	workdir  string        // index stores and spans
	spans    string
}

func main() {
	cfg := config{n: 25000, clients: runtime.NumCPU(), period: 400 * time.Millisecond, warmup: 2 * time.Second}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloads, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same request streams, candidate sets and update batches (the graph is fixed)")
	flag.Float64Var(&cfg.seconds, "seconds", 22, "measured time: the timed window (a traced run on a read-only workload also spends part of it on the update probe)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.workdir, "workdir", filepath.Join(".bench_build", "tsdload"), "scratch directory (index stores, spans)")
	flag.StringVar(&cfg.spans, "spans", "", "traced run: span output file (default: <workdir>/spans-<workload>-<seed>.jsonl)")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.spans == "" {
		cfg.spans = filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
	}
	rep, err := run(cfg)
	if rep != nil {
		env, _ := json.Marshal(map[string]any{"envelope": rep.env}) // plain maps and structs
		fmt.Println(string(env))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdload:", err)
		os.Exit(1)
	}
	rep.print(os.Stderr)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsdload:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// report is one run's outcome.
type report struct {
	env       map[string]any
	specs     []metricSpec
	values    map[string]float64
	attempted int
	failed    int
	errs      []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(r.specs))}
	for _, s := range r.specs {
		out.Metrics[s.name] = metricValue{Value: r.values[s.name], Unit: s.unit}
	}
	return out
}

func (r *report) print(w io.Writer) {
	for _, s := range r.specs {
		fmt.Fprintf(w, "%-40s %14.4f %s\n", s.name, r.values[s.name], s.unit)
	}
	fmt.Fprintf(w, "%-40s %14d\n%-40s %14d\n", "attempted", r.attempted, "failed", r.failed)
	for _, e := range r.errs {
		fmt.Fprintln(w, "failure:", e)
	}
}

// envelope records what a reader needs to compare runs: the machine, the
// toolchain, the commit and the generated input.
func envelope(cfg config, fp fingerprint) map[string]any {
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"warmup_s":   cfg.warmup.Seconds(),
		"trace":      cfg.trace,
		"clients":    cfg.clients,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit,
		"input":      fp,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimLeft(name, " \t:"))
		}
	}
	return runtime.GOARCH
}

// liveHeapMB is the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cacheTotals sums the result-cache counters of every DB serving the stack.
func cacheTotals(st *stack) (hits, misses, invalidated uint64) {
	dbs := []*trussdiv.DB{}
	if st.node != nil {
		dbs = append(dbs, st.node.DB())
	}
	for _, w := range st.shard {
		dbs = append(dbs, w.DB())
	}
	for _, db := range dbs {
		rc := db.ResultCacheStats()
		hits, misses, invalidated = hits+rc.Hits, misses+rc.Misses, invalidated+rc.Invalidated
	}
	return
}

func run(cfg config) (*report, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloads, ", "))
	}
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	phases := map[string]float64{}
	mark := time.Now()
	phase := func(name string) {
		phases[name] = time.Since(mark).Seconds()
		mark = time.Now()
	}
	g := genGraph(cfg.n, graphSeed)
	rep := &report{env: envelope(cfg, fingerprintOf(g)), values: map[string]float64{}}
	rep.env["phases_s"] = phases
	phase("generate")
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set-up: the warm workloads' untimed pre-step persists a store with
	// every engine prepared; the timed part starts from the graph in memory.
	storeDir := ""
	if cfg.workload != wlScanCold {
		storeDir = filepath.Join(tmp, "store")
		if err := buildStore(g, storeDir); err != nil {
			return rep, fmt.Errorf("pre-step: %w", err)
		}
	}
	phase("prestep")
	reps, start := 21, func(c *graph.Graph) (*stack, error) { return startNode(c, storeDir, tr) }
	switch cfg.workload {
	case wlScanCold:
		reps = 3
	case wlCluster:
		reps, start = 11, func(c *graph.Graph) (*stack, error) { return startCluster(c, storeDir, tr) }
	}
	st, setupS, err := timedSetup(reps, g, start)
	if err != nil {
		return rep, fmt.Errorf("set-up: %w", err)
	}
	defer st.close()
	phase("setup")
	// From here on use the graph the stack serves (a structurally equal
	// copy), so the live heap holds one graph, as a real node's does.
	g = st.db().Graph()
	rep.values["setup_s"] = setupS
	rep.values["heap_mb"] = liveHeapMB()

	sp := newSpace(cfg.workload, cfg.n)
	e0 := uint64(st.db().Epoch())
	d := &driver{
		base: "http://" + st.front.addr, cluster: cfg.workload == wlCluster,
		hc: newHTTPClient(cfg.clients), space: sp, seed: cfg.seed, clients: cfg.clients,
		writer: cfg.workload == wlMixedApply, period: cfg.period, tr: tr,
		edges: newEdgeState(g, cfg.seed),
	}
	defer d.hc.CloseIdleConnections()
	d.epoch.Store(e0)

	// The measured time is the timed window, except that a traced run on a
	// read-only workload spends probeShare of it on an update probe after
	// the window.
	dur := time.Duration(cfg.seconds * float64(time.Second))
	readDur := dur
	if cfg.trace && !d.writer {
		readDur = time.Duration(float64(dur) * (1 - probeShare))
	}
	v := rep.values
	// The apply replay starts from a private copy of the store the batches
	// are first applied to: a serving DB may persist a rebuilt index into
	// its own store once its graph has moved on.
	replayBase := filepath.Join(tmp, "replay-base")
	if cfg.trace && d.writer {
		if err := copyStore(storeDir, replayBase); err != nil {
			return rep, err
		}
	}
	// Warm-up: the same traffic on streams of its own, untimed, until the
	// result cache, the connection pool and the heap reach their steady
	// state. Its answers are checked and its batches recorded like the
	// window's.
	wu := d.run(cfg.warmup, warmupStream)
	wu.notSteady = false // the writer's steadiness is judged on the measured windows
	var ref, win *window
	if cfg.trace {
		ref, win = tracedWindows(d, st, tr, readDur, v)
	} else {
		win = d.run(readDur, 0)
	}
	all := &window{}
	for _, w := range []*window{wu, ref, win} {
		if w != nil {
			all.merge(w)
		}
	}
	if all.notSteady {
		rep.env["writer_steady"] = false
		return rep, errors.New("the writer's backlog grew during the window: the run is not steady and reports no numbers")
	}
	phase("window")

	// Oracle, after the timed window. On the cluster tier the reference
	// is a single node opened on the same store.
	o := newOracle(g, e0)
	o.batches = all.batches
	if st.coord != nil {
		if o.single, err = openPrepared(g, storeDir); err != nil {
			return rep, err
		}
	}
	o.checkAnswers(all.answers, d.writer)
	if d.writer {
		d.finalChecks(o, all, rand.New(rand.NewSource(cfg.seed*977+5)))
	}

	// Per-layer replays run on the state the window left, before the
	// read-only workloads' update probe changes it. Replays that need an
	// index store matching the current graph get one built here when the
	// workload's own store does not match (scan-cold has none; mixed-apply
	// moved past its store's graph).
	phase("oracle")
	cur := st.db().Graph()
	labStore := storeDir
	if cfg.trace {
		if cfg.workload == wlScanCold || cfg.workload == wlMixedApply {
			labStore = filepath.Join(tmp, "lab")
			if err := buildStore(cur, labStore); err != nil {
				return rep, fmt.Errorf("lab store: %w", err)
			}
		}
		if err := runLab(cfg, tr, st, sp, win, cur, labStore); err != nil {
			return rep, err
		}
		if !d.writer {
			if err := copyStore(labStore, replayBase); err != nil {
				return rep, err
			}
		}
	}

	phase("lab")

	windowMetrics(v, win)
	rep.env["samples"] = sampleCounts(win)
	rep.env["tails_ms"] = tails(win)

	// Update latency: the mixed-apply writer's, and in a traced run on a
	// read-only workload a probe of batches applied back to back after the
	// window.
	applyW := win
	if cfg.trace && !d.writer {
		applyW = d.probe(dur - readDur)
		all.attempted += applyW.attempted
		all.failed += applyW.failed
		all.errs = append(all.errs, applyW.errs...)
		o.batches = applyW.batches
		if final, err := o.graphAt(d.epoch.Load()); err != nil || !sameGraph(final, st) {
			o.mismatch("after the update probe the served graph differs from the replayed one (%v)", err)
		}
	}
	phase("probe")
	rep.attempted, rep.failed = all.attempted, all.failed+o.bad
	rep.errs = append(all.errs, o.errs...)
	rep.env["oracle_checked"] = o.checked
	if !cfg.trace {
		if d.writer {
			// Recorded for readers; too noisy to bound (see endToEnd).
			rep.env["apply_ms"] = map[string]float64{
				"p50": median(win.apply), "p90": pct(win.apply, 0.9), "samples": float64(len(win.apply))}
		}
		rep.specs = endToEnd
		return rep, nil
	}
	v["apply_p50_ms"] = median(applyW.apply)
	v["apply_p90_ms"] = pct(applyW.apply, 0.9)

	// Traced run: replay the update batches layer by layer, from the
	// graph and store they were first applied to.
	base, batches := cur, applyW.batches
	if d.writer {
		base, batches = g, all.batches
	}
	if err := replayApply(tr, base, replayBase, batches); err != nil {
		return rep, fmt.Errorf("apply replay: %w", err)
	}
	v["apply.late_p90_ms"] = pct(applyW.late, 0.9)
	v["error_rate"] = float64(rep.failed) / float64(max(rep.attempted, 1))
	layerMetrics(tr, v)
	phase("replay")
	rep.specs = perLayer
	rep.env["spans_dropped"] = tr.dropped
	rep.env["spans_file"] = cfg.spans
	if err := tr.write(cfg.spans); err != nil {
		return rep, fmt.Errorf("write spans: %w", err)
	}
	return rep, nil
}

// tracedWindows drives an untraced reference window and then the traced
// one, each half of dur, so the difference between them is the tracing
// overhead. It records the counters only the traced window's deltas
// tell: result-cache hits and invalidations, and cluster fan-out events.
func tracedWindows(d *driver, st *stack, tr *tracer, dur time.Duration, v map[string]float64) (ref, win *window) {
	ref = d.run(dur/2, 0)
	h0, m0, i0 := cacheTotals(st)
	var fan0 [3]uint64
	if st.coord != nil {
		fan0[0], fan0[1], fan0[2] = fanout(st.coord)
	}
	tr.on.Store(true)
	win = d.run(dur/2, 1000)
	tr.on.Store(false)
	h1, m1, i1 := cacheTotals(st)
	v["resultcache.hit_ratio"] = float64(h1-h0) / float64(max(h1-h0+m1-m0, 1))
	v["resultcache.invalidated"] = float64(i1 - i0)
	if st.coord != nil {
		hd, rt, fl := fanout(st.coord)
		v["cluster.hedges"], v["cluster.retries"], v["cluster.failures"] =
			float64(hd-fan0[0]), float64(rt-fan0[1]), float64(fl-fan0[2])
	}
	traced, untraced := map[string]float64{}, map[string]float64{}
	windowMetrics(traced, win)
	windowMetrics(untraced, ref)
	for _, m := range overheadMetrics {
		v["trace_overhead."+m.name] = traced[m.name] - untraced[m.name]
	}
	return ref, win
}

// windowMetrics fills the end-to-end metrics one window measured.
func windowMetrics(v map[string]float64, w *window) {
	v["read_qps"] = float64(w.reads) / w.elapsed
	point := append(append([]float64(nil), w.lat[kindScore]...), w.lat[kindContexts]...)
	v["topr_p50_ms"], v["topr_p90_ms"] = median(w.lat[kindTopR]), pct(w.lat[kindTopR], 0.9)
	v["point_p50_ms"], v["point_p90_ms"] = median(point), pct(point, 0.9)
	v["batch_p50_ms"], v["batch_p90_ms"] = median(w.lat[kindBatch]), pct(w.lat[kindBatch], 0.9)
}

// sampleCounts reports how many samples each latency percentile rests on.
func sampleCounts(w *window) map[string]int {
	return map[string]int{
		"topr":  len(w.lat[kindTopR]),
		"point": len(w.lat[kindScore]) + len(w.lat[kindContexts]),
		"batch": len(w.lat[kindBatch]),
	}
}

// tails records each latency distribution beyond the reported p90, for
// readers; they are too noisy to bound.
func tails(w *window) map[string]map[string]float64 {
	point := append(append([]float64(nil), w.lat[kindScore]...), w.lat[kindContexts]...)
	out := map[string]map[string]float64{}
	for name, xs := range map[string][]float64{"topr": w.lat[kindTopR], "point": point, "batch": w.lat[kindBatch]} {
		out[name] = map[string]float64{"p95": pct(xs, 0.95), "p99": pct(xs, 0.99), "p999": pct(xs, 0.999)}
	}
	return out
}

// sameGraph reports whether every DB of the stack serves a graph equal to g.
func sameGraph(g *graph.Graph, st *stack) bool {
	fp := g.Fingerprint()
	if st.node != nil {
		return st.node.DB().Graph().Fingerprint() == fp
	}
	for _, w := range st.shard {
		if w.DB().Graph().Fingerprint() != fp {
			return false
		}
	}
	return true
}

// copyStore copies the index store file of srcDir into dstDir.
func copyStore(srcDir, dstDir string) error {
	b, err := os.ReadFile(store.PathIn(srcDir))
	if err != nil {
		return fmt.Errorf("copy store: %w", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		return fmt.Errorf("copy store: %w", err)
	}
	if err := os.WriteFile(store.PathIn(dstDir), b, 0o644); err != nil {
		return fmt.Errorf("copy store: %w", err)
	}
	return nil
}
