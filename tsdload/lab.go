package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"trussdiv"
	"trussdiv/internal/cluster"
	"trussdiv/internal/core"
	"trussdiv/internal/ego"
	"trussdiv/internal/graph"
	"trussdiv/internal/kcore"
	"trussdiv/internal/pfree"
	"trussdiv/internal/store"
	"trussdiv/internal/truss"
)

// The traced run's in-process replays. Each times one layer's exported
// calls from outside, on the workload's own generated inputs, and records
// a span per call; the per-layer metrics are read back from those spans.

// profiledEngines are the engines whose Engine.TopR is timed.
var profiledEngines = []string{"online", "bound", "gct", "hybrid", "comp", "kcore", "pfree"}

const (
	clusterBudget  = 1500 * time.Millisecond
	kernelSample   = 300 // vertices timed through ego/truss/kcore
	replayBatches  = 10  // update batches replayed layer by layer
	storeOpenReps  = 5
	replayIDOffset = 1 << 40 // request IDs of sequential replays
)

// replayRequests replays the traced window's sampled requests in process
// on the serving stack's current state: routing (Snapshot.ResolveEngine),
// the in-process equivalent of each request (for the server's self
// time), and, for top-r queries that miss the result cache, the routed
// engine's TopR with the cache bypassed. On the cluster tier the
// in-process equivalent is the Coordinator call, and routing and engines
// are replayed on the first shard's DB, whose cache the coordinator's
// range queries never share a key with.
func replayRequests(tr *tracer, st *stack, logged []logged) {
	ctx := context.Background()
	db := st.db()
	snap := db.Snapshot()
	g := snap.Graph()
	scorers := map[trussdiv.Measure]*core.VertexScorer{}
	contextsDone := 0
	routed := func(id uint64, q trussdiv.Query, missed bool) {
		var eng trussdiv.Engine
		var err error
		tr.time("route", "server.handler", id, func() { eng, err = snap.ResolveEngine(q) })
		if err != nil {
			return
		}
		tr.count("route.engine."+eng.Name(), 1)
		if !missed {
			return // a cache hit: the engine did not run
		}
		var res *trussdiv.Result
		var stats *trussdiv.Stats
		tr.time("engine."+eng.Name(), "route", id, func() { res, stats, err = eng.TopR(ctx, q) })
		if err != nil || stats == nil {
			return
		}
		cands := g.N()
		if q.Candidates != nil {
			cands = len(q.Candidates)
		}
		tr.count("core.scored_per_query", float64(stats.ScoreComputations))
		tr.count("core.prune_ratio", float64(stats.ScoreComputations)/float64(max(cands, 1)))
		// Context recovery per answer vertex, for fixed-k queries.
		if !q.IncludeContexts || q.K == 0 || contextsDone >= 200 {
			return
		}
		m := q.Measure.Normalize()
		vs := scorers[m]
		if vs == nil {
			vs = core.NewVertexScorer(g, m)
			scorers[m] = vs
		}
		for _, e := range res.TopR[:min(len(res.TopR), 5)] {
			tr.time("core.contexts", "engine."+eng.Name(), id, func() { vs.Contexts(e.V, q.K) })
			contextsDone++
		}
	}
	for _, l := range logged {
		switch l.req.kind {
		case kindTopR:
			q := l.req.q.toQuery()
			if st.coord != nil {
				inProcess(tr, l.id, func() error { _, _, err := st.coord.TopR(ctx, q); return err })
			}
			before := db.ResultCacheStats().Misses
			if st.coord == nil {
				inProcess(tr, l.id, func() error { _, _, err := snap.TopR(ctx, q); return err })
			} else {
				snap.TopR(ctx, q)
			}
			routed(l.id, q, db.ResultCacheStats().Misses > before)
		case kindBatch:
			// Which of a batch's queries missed is not observable, so a
			// batch contributes routing samples only.
			qs := make([]trussdiv.Query, len(l.req.batch))
			for i, q := range l.req.batch {
				qs[i] = q.toQuery()
				qs[i].SkipStats = true
			}
			if st.coord == nil {
				inProcess(tr, l.id, func() error { _, err := snap.Batch(ctx, qs); return err })
			}
			for _, q := range qs {
				routed(l.id, q, false)
			}
		default:
			inProcess(tr, l.id, func() error { return pointInProcess(ctx, st, snap, l.req) })
		}
	}
}

// inProcess times the in-process equivalent of one HTTP request.
func inProcess(tr *tracer, id uint64, call func() error) {
	tr.time("inprocess", "", id, func() { _ = call() }) // errors were counted over HTTP
}

func pointInProcess(ctx context.Context, st *stack, snap *trussdiv.Snapshot, r request) error {
	m := trussdiv.Measure(r.measure)
	var err error
	switch {
	case st.coord != nil && r.kind == kindScore:
		_, _, err = st.coord.Score(ctx, r.v, r.k, m)
	case st.coord != nil:
		_, _, err = st.coord.Contexts(ctx, r.v, r.k, m)
	case r.kind == kindScore && r.k == 0:
		_, err = snap.ScorePFree(ctx, r.v, m)
	case r.kind == kindScore:
		_, err = snap.ScoreMeasure(ctx, r.v, r.k, m)
	case r.k == 0:
		_, err = snap.ContextsPFree(ctx, r.v, m)
	default:
		_, err = snap.ContextsMeasure(ctx, r.v, r.k, m)
	}
	return err
}

// profileEngines tops up every profiled engine to at least three timed
// Engine.TopR calls (cache bypassed) by re-asking the workload's sampled
// top-r queries of it, adapted to its row of the routing matrix: tsd,
// gct and hybrid answer truss, comp component, kcore core; pfree takes no
// k and the others k = 4 where the sample was k-less.
func profileEngines(tr *tracer, db *trussdiv.DB, logged []logged) {
	ctx := context.Background()
	snap := db.Snapshot()
	var qs []query
	for _, l := range logged {
		switch l.req.kind {
		case kindTopR:
			qs = append(qs, l.req.q)
		case kindBatch:
			qs = append(qs, l.req.batch...)
		}
	}
	if len(qs) == 0 {
		qs = []query{{K: 4, R: 10, Measure: "truss"}}
	}
	for _, name := range profiledEngines {
		eng, err := snap.Engine(name)
		if err != nil {
			continue
		}
		have := len(tr.durations("engine."+name, time.Microsecond))
		for i := 0; have < 3; i++ {
			q := qs[i%len(qs)]
			switch name {
			case "pfree":
				q.K = 0
			case "gct", "hybrid":
				q.Measure = "truss"
			case "comp":
				q.Measure = "component"
			case "kcore":
				q.Measure = "core"
			}
			if name != "pfree" && q.K == 0 {
				q.K = 4
			}
			tr.time("engine."+name, "profile", 0, func() { _, _, err = eng.TopR(ctx, q.toQuery()) })
			if err != nil {
				break
			}
			have++
		}
	}
}

// vertexSample draws the workload's point-query vertex distribution.
func vertexSample(sp *space, seed int64, count int) []int32 {
	gen := sp.generator(seed, 1<<20)
	out := make([]int32, 0, count)
	for len(out) < count {
		if sp.wl == wlScanCold {
			out = append(out, int32(gen.rng.Intn(sp.n)))
		} else {
			out = append(out, sp.vperm[gen.vzipf.Uint64()])
		}
	}
	return out
}

// profileKernels times the scoring kernel's layers over a vertex sample:
// ego extraction, ego-local truss and core decomposition and component
// counting, context recovery (topped up to 30 samples), and the two
// whole-graph passes behind set-up: BuildAll and the parallel global
// truss decomposition.
func profileKernels(tr *tracer, g *graph.Graph, vs []int32) {
	var es ego.Scratch
	var ts truss.Scratch
	var ks kcore.Scratch
	for _, v := range vs {
		var net *ego.Network
		tr.time("ego.extract", "kernel", 0, func() { net = ego.ExtractOneInto(&es, g, v) })
		tr.count("ego.edges", float64(net.G.M()))
		var tau, cores []int32
		tr.time("truss.decompose", "ego.extract", 0, func() { tau = ts.DecomposeInto(net.G) })
		tr.time("truss.components", "truss.decompose", 0, func() { ts.CountComponents(net.G, tau, 4) })
		tr.time("kcore.decompose", "ego.extract", 0, func() { cores = ks.DecomposeInto(net.G) })
		tr.time("kcore.components", "kcore.decompose", 0, func() { ks.CountComponents(net.G, cores, 3) })
	}
	scorer := core.NewVertexScorer(g, core.MeasureTruss)
	for i := len(tr.durations("core.contexts", time.Microsecond)); i < 30 && i < len(vs); i++ {
		tr.time("core.contexts", "kernel", 0, func() { scorer.Contexts(vs[i], 4) })
	}
	tr.time("core.buildall", "setup", 0, func() {
		core.BuildAll(g, core.BuildTargets{TSD: true, GCT: true, TrussRanks: true}, 0)
	})
	tr.time("truss.global_decompose", "setup", 0, func() { truss.DecomposeParallel(g, 0) })
}

// profileStore times opening the store (mmap) and loading each ranked
// section, on fresh graph copies so the fingerprint check is paid each
// time as on a real start.
func profileStore(tr *tracer, g *graph.Graph, dir string) error {
	path := store.PathIn(dir)
	for i := 0; i < storeOpenReps; i++ {
		c := cloneGraph(g)
		var f *store.File
		var err error
		tr.time("store.open", "setup", 0, func() { f, err = store.OpenFile(path, c, store.WithMode(store.ModeMmap)) })
		if err != nil {
			return fmt.Errorf("open store: %w", err)
		}
		sections := []struct {
			name string
			load func() error
		}{
			{"gct", func() error { _, err := f.GCT(); return err }},
			{"rankings", func() error { _, err := f.Rankings(); return err }},
			{"rankings_component", func() error { _, err := f.MeasureRankings(core.MeasureComponent); return err }},
			{"rankings_core", func() error { _, err := f.MeasureRankings(core.MeasureCore); return err }},
			{"pfree", func() error { _, err := f.PFreeRanking(core.MeasureTruss); return err }},
		}
		for _, s := range sections {
			tr.time("store.section_load."+s.name, "store.open", 0, func() { err = s.load() })
			if err != nil {
				f.Close()
				return fmt.Errorf("load section %s: %w", s.name, err)
			}
		}
		tr.count("store.payload_reads", float64(f.PayloadReads()))
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// fanout sums the coordinator's per-shard hedge/retry/failure counters.
func fanout(c *cluster.Coordinator) (hedges, retries, failures uint64) {
	for _, s := range c.FanoutStats() {
		hedges += s.Hedges
		retries += s.Retries
		failures += s.Failures
	}
	return
}

// replayCluster sends sampled requests one at a time through a 2-shard
// cluster so each coordinator span can be matched to its shard spans:
// the shard middleware tags spans with the replay request in flight.
// Candidate sets are dropped (the tier has none) and a batch replays as
// its first query.
func replayCluster(tr *tracer, st *stack, logged []logged) (hedges, retries, failures uint64) {
	hc := newHTTPClient(1)
	defer hc.CloseIdleConnections()
	h0, r0, f0 := fanout(st.coord)
	deadline := time.Now().Add(clusterBudget)
	for i, l := range logged {
		if time.Now().After(deadline) {
			break
		}
		req := l.req
		switch req.kind {
		case kindBatch:
			req = request{kind: kindTopR, q: req.batch[0]}
			fallthrough
		case kindTopR:
			req.q.Cands = nil
		}
		id := uint64(replayIDOffset + i + 1)
		tr.replay.Store(id)
		hr, err := http.NewRequest(http.MethodGet, "http://"+st.front.addr+req.path(), nil)
		if err != nil {
			continue
		}
		hr.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		if resp, err := hc.Do(hr); err == nil {
			drain(resp)
		}
	}
	tr.replay.Store(0)
	h1, r1, f1 := fanout(st.coord)
	return h1 - h0, r1 - r0, f1 - f0
}

// replayApply replays update batches layer by layer on structures loaded
// from the store at the base graph (decode mode: private copies), the way
// DB.Apply maintains them, and separately times DB.Apply on a warm twin
// DB.
func replayApply(tr *tracer, base *graph.Graph, dir string, batches []appliedBatch) error {
	batches = batches[:min(len(batches), replayBatches)]
	if len(batches) == 0 {
		return nil
	}
	f, err := store.OpenFile(store.PathIn(dir), base, store.WithMode(store.ModeDecode))
	if err != nil {
		return fmt.Errorf("open store: %w", err)
	}
	defer f.Close()
	tau, err1 := f.Tau()
	sup, err2 := f.Sup()
	tsd, err3 := f.TSD()
	gct, err4 := f.GCT()
	perK, err5 := f.Rankings()
	if err := firstErr(err1, err2, err3, err4, err5); err != nil {
		return fmt.Errorf("load base structures: %w", err)
	}
	hybrid := core.NewHybridFromRankings(base, perK)
	mrank := map[core.Measure][][]core.VertexScore{}
	for _, m := range []core.Measure{core.MeasureComponent, core.MeasureCore} {
		if mrank[m], err = f.MeasureRankings(m); err != nil {
			return err
		}
	}
	pfrank := map[core.Measure][]core.VertexScore{}
	for _, m := range core.AllMeasures() {
		if pfrank[m], err = f.PFreeRanking(m); err != nil {
			return err
		}
	}

	g := base
	for _, b := range batches {
		var newG *graph.Graph
		tr.time("apply.edits", "db.apply", 0, func() { newG, err = core.ApplyEdits(g, b.ins, b.del) })
		if err != nil {
			return err
		}
		tr.time("core.index_update", "db.apply", 0, func() {
			tsd, _ = tsd.UpdateOnto(newG, b.ins, b.del)
			gct, _ = gct.UpdateOnto(newG, b.ins, b.del)
		})
		tr.time("truss.repair", "db.apply", 0, func() {
			if rr, ok := truss.Repair(g, newG, tau, sup, b.ins, b.del, 0); ok {
				tau, sup = rr.Tau, rr.Sup
				tr.count("truss.repair_region", float64(rr.Region))
			} else {
				tau, sup = truss.DecomposeFull(newG, 0)
				tr.count("truss.repair_region", float64(newG.M()))
			}
		})
		var affected []int32
		tr.time("apply.affected", "db.apply", 0, func() { affected = core.AffectedVertices(g, newG, b.ins, b.del) })
		tr.count("apply.affected", float64(len(affected)))
		tr.time("core.patch", "db.apply", 0, func() {
			hybrid = core.PatchHybrid(hybrid, gct, affected)
			for m, old := range mrank {
				mrank[m] = core.PatchMeasureRankings(newG, m, old, affected)
			}
			for m, old := range pfrank {
				pfrank[m] = pfree.PatchRanking(newG, m, old, affected)
			}
		})
		g = newG
	}

	twin, err := trussdiv.Open(base, trussdiv.WithIndexDir(dir), trussdiv.WithStoreMode(trussdiv.StoreMmap))
	if err != nil {
		return err
	}
	if err := twin.Prepare(context.Background(), allEngines...); err != nil {
		return err
	}
	for _, b := range batches {
		tr.time("db.apply", "", 0, func() {
			_, err = twin.Apply(context.Background(), trussdiv.Updates{Insert: b.ins, Delete: b.del})
		})
		if err != nil {
			return fmt.Errorf("twin apply: %w", err)
		}
	}
	return nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runLab runs the traced run's replays on the state the window left.
func runLab(cfg config, tr *tracer, st *stack, sp *space, win *window, cur *graph.Graph, labStore string) error {
	replayRequests(tr, st, win.logged)
	profileEngines(tr, st.db(), win.logged)
	profileKernels(tr, cur, vertexSample(sp, cfg.seed, kernelSample))
	if err := profileStore(tr, cur, labStore); err != nil {
		return fmt.Errorf("store replay: %w", err)
	}
	cl := st
	if st.coord == nil {
		var err error
		if cl, err = startCluster(cur, labStore, tr); err != nil {
			return fmt.Errorf("replay cluster: %w", err)
		}
		defer cl.close()
	}
	tr.on.Store(true)
	hedges, retries, failures := replayCluster(tr, cl, win.logged)
	tr.on.Store(false)
	if st.coord == nil {
		// The live window had no cluster tier: report the replay's counters.
		tr.count("cluster.hedges", float64(hedges))
		tr.count("cluster.retries", float64(retries))
		tr.count("cluster.failures", float64(failures))
	}
	return nil
}

// layerMetrics reads the per-layer metrics back from the spans.
func layerMetrics(tr *tracer, v map[string]float64) {
	us, ms := time.Microsecond, time.Millisecond
	p50 := func(name string, unit time.Duration) float64 { return median(tr.durations(name, unit)) }

	// Server: the front handler's spans from the live traced window, matched
	// by request ID to the client's round trips and in-process replays.
	handler := tr.byReq("server.handler")
	client := tr.byReq("client")
	inproc := tr.byReq("inprocess")
	var hd, transport, self []float64
	for id, h := range handler {
		if id >= replayIDOffset {
			continue
		}
		hd = append(hd, float64(h.dur())/float64(us))
		if c, ok := client[id]; ok {
			transport = append(transport, float64(c.dur()-h.dur())/float64(us))
		}
		if p, ok := inproc[id]; ok {
			self = append(self, float64(h.dur()-p.dur())/float64(us))
		}
	}
	v["server.handler_p50_us"], v["server.transport_p50_us"], v["server.self_p50_us"] = median(hd), median(transport), median(self)

	v["route.p50_us"] = p50("route", us)
	for _, e := range []string{"online", "bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"} {
		v["route.engine."+e] = float64(len(tr.samples("route.engine." + e)))
	}
	for _, e := range profiledEngines {
		v["engine."+e+".p50_us"] = p50("engine."+e, us)
	}
	v["core.scored_per_query"] = mean(tr.samples("core.scored_per_query"))
	v["core.prune_ratio"] = mean(tr.samples("core.prune_ratio"))
	v["core.contexts_p50_us"] = p50("core.contexts", us)
	v["core.buildall_ms"] = p50("core.buildall", ms)
	v["ego.extract_p50_us"] = p50("ego.extract", us)
	v["ego.edges_mean"] = mean(tr.samples("ego.edges"))
	v["truss.decompose_p50_us"] = p50("truss.decompose", us)
	v["truss.components_p50_us"] = p50("truss.components", us)
	v["truss.global_decompose_ms"] = p50("truss.global_decompose", ms)
	v["kcore.decompose_p50_us"] = p50("kcore.decompose", us)
	v["kcore.components_p50_us"] = p50("kcore.components", us)

	v["db.apply_p50_ms"] = p50("db.apply", ms)
	v["apply.edits_ms"] = p50("apply.edits", ms)
	v["apply.affected"] = mean(tr.samples("apply.affected"))
	v["core.index_update_ms"] = p50("core.index_update", ms)
	v["core.patch_ms"] = p50("core.patch", ms)
	v["truss.repair_ms"] = p50("truss.repair", ms)
	v["truss.repair_region"] = mean(tr.samples("truss.repair_region"))

	v["store.open_ms"] = p50("store.open", ms)
	for _, s := range storeSections {
		v["store.section_load_us."+s] = p50("store.section_load."+s, us)
	}
	v["store.payload_reads"] = mean(tr.samples("store.payload_reads"))

	// Cluster: shard spans of the sequential replay, each tagged with its
	// request; merge is the coordinator's handler time beyond the slowest
	// shard of the same request.
	slowest := map[uint64]time.Duration{}
	var shard []float64
	for _, s := range tr.named("cluster.shard") {
		if s.Req >= replayIDOffset {
			shard = append(shard, float64(s.dur())/float64(ms))
			slowest[s.Req] = max(slowest[s.Req], s.dur())
		}
	}
	var merge []float64
	for id, h := range handler {
		if sl, ok := slowest[id]; ok && id >= replayIDOffset {
			merge = append(merge, float64(h.dur()-sl)/float64(us))
		}
	}
	v["cluster.shard_p50_ms"], v["cluster.merge_p50_us"] = median(shard), median(merge)
	for _, c := range []string{"cluster.hedges", "cluster.retries", "cluster.failures"} {
		if xs := tr.samples(c); len(xs) > 0 {
			v[c] = xs[0]
		}
	}
}

func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body) // only the timing matters
	resp.Body.Close()
}
