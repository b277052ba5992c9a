package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"sync"
	"time"

	"trussdiv/internal/core"
	"trussdiv/internal/pfree"
	"trussdiv/internal/store"
	"trussdiv/internal/truss"
)

// indexCache lazily provides and shares the search accelerators — the
// global truss decomposition and the TSD/GCT/Hybrid structures — among
// the engine adapters of one DB, so e.g. the gct and hybrid engines reuse
// one GCT index. With an index directory configured (WithIndexDir), a
// cache miss first tries the on-disk store and only then builds from the
// graph; every from-scratch build is persisted back, so the next process
// warm starts. All accessors are safe for concurrent use; builds are not
// interruptible, so cancellation is observed before a build starts.
type indexCache struct {
	g *Graph

	mu        sync.Mutex
	epoch     Epoch   // the snapshot this cache belongs to; recorded on persist
	tau       []int32 // global truss decomposition, indexed by edge ID
	sup       []int32 // pristine edge supports matching tau (nil when tau was store-loaded)
	tsd       *core.TSDIndex
	gct       *core.GCTIndex
	hybrid    *core.Hybrid
	mrank     map[core.Measure][][]core.VertexScore // per-measure per-k rankings (non-truss)
	pfrank    map[core.Measure][]core.VertexScore   // parameter-free rankings (all measures)
	buildTime time.Duration
	loadTime  time.Duration

	// Persistence state. file is the validated warm-start file (nil on a
	// cold start); bad marks sections whose payload failed its checksum
	// (decode mode) or structural validation (mmap mode) — sections fail
	// independently, so one damaged section does not discredit the rest of
	// the file. loadErr records why
	// an on-disk index (or section) was rejected, saveErr the last persist
	// failure. deferPersist batches the per-build writes of a Prepare into
	// one (dirty remembers that something was built meanwhile).
	dir          string
	mode         store.Mode
	file         *store.File
	bad          map[store.SectionRef]bool
	loadErr      error
	saveErr      error
	deferPersist bool
	dirty        bool

	// retained pins every mmap-backed store.File whose views this cache's
	// structures may alias — including files inherited through advance,
	// because incremental repair shares untouched per-vertex slices with
	// the previous generation. Each entry owns one File reference, released
	// by a GC cleanup when the cache itself becomes unreachable, so a
	// superseded snapshot chain unmaps once its last reader lets go.
	retained []*store.File

	// Build entry points, swappable by tests that assert a warm open
	// never builds; builds counts the from-scratch constructions. buildTau
	// returns the supports alongside the decomposition — the incremental
	// repair consumes them on the next Apply. buildAllIdx is the
	// single-pass multi-structure driver Prepare routes through when two
	// or more ego-derived structures are missing at once.
	buildTau    func(*Graph) (tau, sup []int32)
	buildTSD    func(*Graph) *core.TSDIndex
	buildGCT    func(*Graph) *core.GCTIndex
	buildHybrid func(*core.GCTIndex) *core.Hybrid
	buildMRank  func(*Graph, core.Measure) [][]core.VertexScore
	buildAllIdx func(*Graph, core.BuildTargets) *core.BuildProducts
	builds      int
}

// trussSec addresses a truss-tagged section of the index store (the only
// kind that existed before format v2).
func trussSec(s store.Section) store.SectionRef {
	return store.SectionRef{Section: s, Measure: core.MeasureTruss}
}

// newIndexCache wires a cache to its builders and, when cfg names an
// index directory, validates any index file found there. A missing file
// is a normal cold start; a file that fails validation (stale
// fingerprint, wrong version, corruption) is recorded in loadErr — the
// typed error StoreStatus exposes — and the cache falls back to building.
func newIndexCache(g *Graph, cfg dbConfig) *indexCache {
	workers := cfg.buildWorkers
	c := &indexCache{
		g:   g,
		tsd: cfg.tsdIdx,
		gct: cfg.gctIdx,
		dir: cfg.indexDir,
		// Cold decompositions run the parallel h-index peeling; the tau
		// array is byte-identical to the serial Decompose, and the supports
		// come back pristine so the next Apply can repair incrementally.
		buildTau: func(g *Graph) ([]int32, []int32) {
			return truss.DecomposeFull(g, workers)
		},
		buildTSD:    core.BuildTSDIndex,
		buildGCT:    core.BuildGCTIndex,
		buildHybrid: core.BuildHybrid,
		buildMRank:  core.BuildMeasureRankings,
		buildAllIdx: func(g *Graph, t core.BuildTargets) *core.BuildProducts {
			return core.BuildAll(g, t, workers)
		},
	}
	if cfg.storeMode == StoreDecode {
		c.mode = store.ModeDecode
	}
	if c.dir != "" {
		f, err := store.OpenFile(store.PathIn(c.dir), g, store.WithMode(c.mode))
		switch {
		case err == nil:
			c.file = f
			c.adoptFile(f)
		case errors.Is(err, fs.ErrNotExist):
			// Cold start: nothing persisted yet.
		default:
			c.loadErr = err
		}
	}
	return c
}

// adoptFile takes ownership of one reference to a mapped store file: the
// cache's structures may serve zero-copy views into it, so the mapping
// must outlive the cache. The reference is released by a GC cleanup when
// the cache becomes unreachable — never earlier, never while a snapshot
// (or a repaired descendant holding shared slices) can still read the
// views. Decode-mode files hold no mapping and need no lifecycle.
func (c *indexCache) adoptFile(f *store.File) {
	if f.Mode() != store.ModeMmap {
		return
	}
	c.retained = append(c.retained, f)
	runtime.AddCleanup(c, func(f *store.File) { f.Close() }, f)
}

// setEpoch aligns the cache with the snapshot it serves, so a persist
// records which graph version the file describes.
func (c *indexCache) setEpoch(e Epoch) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.epoch = e
}

// storedEpoch reads the epoch a warm index file recorded (0 when cold,
// absent, or unreadable) — Open resumes the counter from it so epochs
// keep increasing across redeploys.
func (c *indexCache) storedEpoch() Epoch {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep := loadSection(c, trussSec(store.SecEpoch), (*store.File).Epoch)
	return Epoch(ep)
}

// advance derives the next snapshot's cache from this one after an update
// batch: every index in memory is repaired incrementally against the
// shared edited graph (copy-on-write, so this cache keeps answering for
// in-flight readers). The TSD and GCT indexes rebuild only the affected
// ego-networks; the global truss decomposition is repaired by the bounded
// region descent of truss.Repair (falling back to invalidation — and a
// lazy parallel rebuild — when the affected region exceeds its budget or
// the supports were not retained); the hybrid and per-measure rankings
// are patched in place by re-scoring only the affected vertices. The
// repairs run outside the lock (they only read the old, now-immutable
// structures) so readers of this snapshot never block on an Apply. The
// index store connection moves to the new cache: its next persist
// re-derives the fingerprint from the edited graph. This cache stops
// persisting — a late lazy build on a superseded snapshot must not
// clobber newer state.
func (c *indexCache) advance(newG *Graph, ins, del []Edge) (*indexCache, *core.UpdateStats) {
	c.mu.Lock()
	oldG := c.g
	tsd, gct := c.tsd, c.gct
	tau, sup := c.tau, c.sup
	hybrid := c.hybrid
	var mrank map[core.Measure][][]core.VertexScore
	if len(c.mrank) > 0 {
		mrank = make(map[core.Measure][][]core.VertexScore, len(c.mrank))
		for m, perK := range c.mrank {
			mrank[m] = perK
		}
	}
	var pfrank map[core.Measure][]core.VertexScore
	if len(c.pfrank) > 0 {
		pfrank = make(map[core.Measure][]core.VertexScore, len(c.pfrank))
		for m, ranked := range c.pfrank {
			pfrank[m] = ranked
		}
	}
	next := &indexCache{
		g:           newG,
		dir:         c.dir,
		mode:        c.mode,
		buildTau:    c.buildTau,
		buildTSD:    c.buildTSD,
		buildGCT:    c.buildGCT,
		buildHybrid: c.buildHybrid,
		buildMRank:  c.buildMRank,
		buildAllIdx: c.buildAllIdx,
	}
	// The repaired indexes below share every untouched per-vertex slice
	// with this cache's structures — which may be zero-copy views into a
	// mapped store file — so the next generation must pin the same
	// mappings. (The repairs themselves never write into shared storage:
	// they are copy-on-write by contract, and the mappings are PROT_READ,
	// so a regression faults loudly instead of corrupting live readers.)
	for _, f := range c.retained {
		next.adoptFile(f.Retain())
	}
	c.dir = ""
	c.mu.Unlock()

	var stats *core.UpdateStats
	if tsd != nil {
		next.tsd, stats = tsd.UpdateOnto(newG, ins, del)
	}
	if gct != nil {
		next.gct, stats = gct.UpdateOnto(newG, ins, del)
	}

	ensureStats := func() *core.UpdateStats {
		if stats == nil {
			stats = &core.UpdateStats{Inserted: len(ins), Removed: len(del)}
		}
		return stats
	}

	// Global truss decomposition: bounded incremental repair. Repair
	// declines (and the decomposition is invalidated, to be rebuilt by the
	// parallel peeling on next use) when the region the batch can influence
	// exceeds the size cutoff — the cost router then prices the rebuild
	// back into the bound engine's estimate.
	if tau != nil && sup != nil {
		if rr, ok := truss.Repair(oldG, newG, tau, sup, ins, del, 0); ok {
			next.tau, next.sup = rr.Tau, rr.Sup
			st := ensureStats()
			st.TrussRepaired = true
			st.TrussRegion = rr.Region
		}
	}

	// Ranking tables: patch in place by re-scoring only the vertices whose
	// ego-networks the batch touched. The hybrid patch re-scores against
	// the repaired GCT index, so it needs one in memory; a hybrid that was
	// reconstructed from persisted rankings without its GCT falls back to
	// invalidation.
	if (hybrid != nil && next.gct != nil) || len(mrank) > 0 || len(pfrank) > 0 {
		affected := core.AffectedVertices(oldG, newG, ins, del)
		st := ensureStats()
		if hybrid != nil && next.gct != nil {
			next.hybrid = core.PatchHybrid(hybrid, next.gct, affected)
			st.RankingsPatched++
		}
		for m, perK := range mrank {
			// next is not shared yet: no lock needed.
			next.setMeasureRankLocked(m, core.PatchMeasureRankings(newG, m, perK, affected))
			st.RankingsPatched++
		}
		for m, ranked := range pfrank {
			// The parameter-free ranking splices the same affected set:
			// re-score only those vertices' all-k vectors, merge canonically.
			next.setPFreeRankLocked(m, pfree.PatchRanking(newG, m, ranked, affected))
			st.RankingsPatched++
		}
	}
	return next, stats
}

// loadSection reads one section instance (section kind + measure tag)
// from the warm-start file, or returns the zero value when the file is
// absent or lacks the section. A damaged section records the typed error
// and is marked bad so later misses rebuild (and re-persist) instead of
// retrying a broken read; the file's other sections stay trusted — damage
// is detected and handled per section. Callers must hold c.mu.
func loadSection[T any](c *indexCache, ref store.SectionRef, read func(*store.File) (T, error)) T {
	var zero T
	if c.file == nil || !c.file.HasMeasure(ref.Section, ref.Measure) || c.bad[ref] {
		return zero
	}
	start := time.Now()
	v, err := read(c.file)
	if err != nil {
		c.loadErr = err
		if c.bad == nil {
			c.bad = make(map[store.SectionRef]bool)
		}
		c.bad[ref] = true
		return zero
	}
	c.loadTime += time.Since(start)
	return v
}

// trussTau returns the global truss decomposition, loading or computing
// (and then persisting) it on first use. The bound engine's searches read
// it through this cache, so sparsification costs one edge filter instead
// of a fresh decomposition per query.
func (c *indexCache) trussTau() []int32 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.trussTauLocked()
}

func (c *indexCache) trussTauLocked() []int32 {
	if c.tau != nil {
		return c.tau
	}
	if tau := loadSection(c, trussSec(store.SecTruss), (*store.File).Tau); tau != nil {
		// Format v3 persists the supports next to the decomposition, so a
		// warm start repairs incrementally on the very first Apply. Older
		// files lack the section (sup stays nil) and the first Apply
		// rebuilds; the rebuild re-derives both and repair resumes.
		c.tau = tau
		c.sup = loadSection(c, trussSec(store.SecSupports), (*store.File).Sup)
		return c.tau
	}
	start := time.Now()
	c.tau, c.sup = c.buildTau(c.g)
	c.buildTime += time.Since(start)
	c.builds++
	c.persistAfterBuildLocked()
	return c.tau
}

func (c *indexCache) tsdIndex() *core.TSDIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tsdIndexLocked()
}

func (c *indexCache) tsdIndexLocked() *core.TSDIndex {
	if c.tsd != nil {
		return c.tsd
	}
	if idx := loadSection(c, trussSec(store.SecTSD), (*store.File).TSD); idx != nil {
		c.tsd = idx
		return c.tsd
	}
	start := time.Now()
	c.tsd = c.buildTSD(c.g)
	c.buildTime += time.Since(start)
	c.builds++
	c.persistAfterBuildLocked()
	return c.tsd
}

func (c *indexCache) gctIndex() *core.GCTIndex {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gctIndexLocked()
}

func (c *indexCache) gctIndexLocked() *core.GCTIndex {
	if c.gct != nil {
		return c.gct
	}
	if idx := loadSection(c, trussSec(store.SecGCT), (*store.File).GCT); idx != nil {
		c.gct = idx
		return c.gct
	}
	start := time.Now()
	c.gct = c.buildGCT(c.g)
	c.buildTime += time.Since(start)
	c.builds++
	c.persistAfterBuildLocked()
	return c.gct
}

func (c *indexCache) hybridEngine() *core.Hybrid {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hybridLocked()
}

func (c *indexCache) hybridLocked() *core.Hybrid {
	if c.hybrid != nil {
		return c.hybrid
	}
	// Persisted rankings rebuild the hybrid without touching the GCT
	// index: NewHybridFromRankings only allocates a scorer.
	if perK := loadSection(c, trussSec(store.SecRankings), (*store.File).Rankings); perK != nil {
		c.hybrid = core.NewHybridFromRankings(c.g, perK)
		return c.hybrid
	}
	idx := c.gctIndexLocked()
	start := time.Now()
	c.hybrid = c.buildHybrid(idx)
	c.buildTime += time.Since(start)
	c.builds++
	c.persistAfterBuildLocked()
	return c.hybrid
}

// measureRankings returns measure m's per-k rankings: from memory, else
// loaded from a v2 index store section, else — only when build is set —
// built from the graph (one ego decomposition per vertex) and persisted.
// Without build, a cold cache returns nil and the caller falls back to
// scanning; Prepare("comp"/"kcore") is the build path.
func (c *indexCache) measureRankings(m Measure, build bool) [][]core.VertexScore {
	m = m.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.measureRankingsLocked(m, build)
}

func (c *indexCache) measureRankingsLocked(m Measure, build bool) [][]core.VertexScore {
	if perK := c.mrank[m]; perK != nil {
		return perK
	}
	ref := store.SectionRef{Section: store.SecRankings, Measure: m}
	if perK := loadSection(c, ref, func(f *store.File) ([][]core.VertexScore, error) {
		return f.MeasureRankings(m)
	}); perK != nil {
		c.setMeasureRankLocked(m, perK)
		return perK
	}
	if !build {
		return nil
	}
	start := time.Now()
	perK := c.buildMRank(c.g, m)
	c.buildTime += time.Since(start)
	c.builds++
	c.setMeasureRankLocked(m, perK)
	c.persistAfterBuildLocked()
	return perK
}

func (c *indexCache) setMeasureRankLocked(m Measure, perK [][]core.VertexScore) {
	if c.mrank == nil {
		c.mrank = make(map[core.Measure][][]core.VertexScore, 2)
	}
	c.mrank[m] = perK
}

func (c *indexCache) hasMeasureRank(m Measure) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.mrank[m.Normalize()] != nil
}

// pfreeRanking returns the parameter-free engine's canonical ranking for
// measure m: from memory, else loaded from the store's measure-tagged
// pfree slab, else derived in O(table) from per-k rankings that are
// already at hand (the hybrid's truss tables, or a measure-rankings
// section in memory or on disk). Only when build is set does a fully
// cold cache pay for the per-k source (one ego decomposition per
// vertex); without it the caller falls back to the online scan.
// Derivations and builds persist, so the next boot warm-starts the slab.
func (c *indexCache) pfreeRanking(m Measure, build bool) []core.VertexScore {
	m = m.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pfreeRankingLocked(m, build)
}

func (c *indexCache) pfreeRankingLocked(m Measure, build bool) []core.VertexScore {
	if ranked := c.pfrank[m]; ranked != nil {
		return ranked
	}
	ref := store.SectionRef{Section: store.SecPFree, Measure: m}
	if ranked := loadSection(c, ref, func(f *store.File) ([]core.VertexScore, error) {
		return f.PFreeRanking(m)
	}); ranked != nil {
		c.setPFreeRankLocked(m, ranked)
		return ranked
	}
	if perK := c.perKForPFreeLocked(m, false); perK != nil {
		// O(table) slice surgery, cheap enough for the query path; persist
		// so the next boot loads the slab instead of re-deriving.
		ranked := pfree.RankingFromPerK(perK)
		c.setPFreeRankLocked(m, ranked)
		c.persistAfterBuildLocked()
		return ranked
	}
	if !build {
		return nil
	}
	start := time.Now()
	ranked := pfree.RankingFromPerK(c.perKForPFreeLocked(m, true))
	c.buildTime += time.Since(start)
	c.builds++
	c.setPFreeRankLocked(m, ranked)
	c.persistAfterBuildLocked()
	return ranked
}

// perKForPFreeLocked resolves the per-k ranking table the pfree
// derivation consumes: truss tables live in the hybrid engine (memory,
// then the persisted rankings section), non-truss ones in the measure
// rankings. Without build, only sources that are already in memory or
// loadable from the store qualify — never a from-scratch ego pass.
func (c *indexCache) perKForPFreeLocked(m Measure, build bool) [][]core.VertexScore {
	if m == MeasureTruss {
		if c.hybrid != nil {
			return c.hybrid.Rankings()
		}
		if perK := loadSection(c, trussSec(store.SecRankings), (*store.File).Rankings); perK != nil {
			c.hybrid = core.NewHybridFromRankings(c.g, perK)
			return perK
		}
		if !build {
			return nil
		}
		return c.hybridLocked().Rankings()
	}
	return c.measureRankingsLocked(m, build)
}

func (c *indexCache) setPFreeRankLocked(m Measure, ranked []core.VertexScore) {
	if c.pfrank == nil {
		c.pfrank = make(map[core.Measure][]core.VertexScore, 3)
	}
	c.pfrank[m] = ranked
}

func (c *indexCache) hasPFreeRank(m Measure) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.pfrank[m.Normalize()] != nil
}

// onDiskPFreeRank reports whether measure m's pfree ranking can be
// loaded from the warm-start file.
func (c *indexCache) onDiskPFreeRank(m Measure) bool {
	m = m.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := store.SectionRef{Section: store.SecPFree, Measure: m}
	return c.file != nil && c.file.HasMeasure(store.SecPFree, m) && !c.bad[ref]
}

// hasPerKForPFree reports whether the pfree ranking for m is derivable
// in O(table) right now (per-k source in memory or on disk), which the
// cost model prices far below a cold ego pass.
func (c *indexCache) hasPerKForPFree(m Measure) bool {
	m = m.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	if m == MeasureTruss {
		if c.hybrid != nil {
			return true
		}
		ref := trussSec(store.SecRankings)
		return c.file != nil && c.file.HasMeasure(store.SecRankings, m) && !c.bad[ref]
	}
	if c.mrank[m] != nil {
		return true
	}
	ref := store.SectionRef{Section: store.SecRankings, Measure: m}
	return c.file != nil && c.file.HasMeasure(store.SecRankings, m) && !c.bad[ref]
}

// onDiskMeasureRank reports whether measure m's rankings can be loaded
// from the warm-start file (a v2 store with the measure-tagged section).
func (c *indexCache) onDiskMeasureRank(m Measure) bool {
	m = m.Normalize()
	c.mu.Lock()
	defer c.mu.Unlock()
	ref := store.SectionRef{Section: store.SecRankings, Measure: m}
	return c.file != nil && c.file.HasMeasure(store.SecRankings, m) && !c.bad[ref]
}

// prepareShared is Prepare's fast path: it collects every ego-derived
// structure the requested names will need that is in neither memory nor
// the warm-start file, and — when two or more would each pay their own
// per-vertex extraction pass — builds them all in one BuildAll sweep
// (one ego extraction and one truss decomposition per vertex, shared by
// every consumer). Structures found in memory or on disk are left for
// the per-name loaders, so the warm-open contract (builds == 0) and the
// per-section damage accounting are untouched. With fewer than two
// missing structures it does nothing: the dedicated builders (and their
// test tripwires) keep handling the singleton case.
func (c *indexCache) prepareShared(names []string) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	avail := func(ref store.SectionRef) bool {
		return c.file != nil && c.file.HasMeasure(ref.Section, ref.Measure) && !c.bad[ref]
	}
	// pfree rankings derive in O(table) from per-k tables, so "pfree"
	// needs a from-scratch build only for measures whose pfree slab AND
	// per-k source are both missing everywhere.
	pfreeNeeds := func(m core.Measure) bool {
		return want["pfree"] && c.pfrank[m] == nil &&
			!avail(store.SectionRef{Section: store.SecPFree, Measure: m})
	}
	var t core.BuildTargets
	if want["tsd"] && c.tsd == nil && !avail(trussSec(store.SecTSD)) {
		t.TSD = true
	}
	if want["gct"] && c.gct == nil && !avail(trussSec(store.SecGCT)) {
		t.GCT = true
	}
	if (want["hybrid"] || pfreeNeeds(MeasureTruss)) &&
		c.hybrid == nil && c.gct == nil && !avail(trussSec(store.SecRankings)) {
		// With a GCT index in memory the hybrid build is a cheap index
		// read, not an extraction pass — leave it to buildHybrid.
		t.TrussRanks = true
	}
	for _, mc := range []struct {
		name string
		m    core.Measure
	}{{"comp", MeasureComponent}, {"kcore", MeasureCore}} {
		if (want[mc.name] || pfreeNeeds(mc.m)) && c.mrank[mc.m] == nil &&
			!avail(store.SectionRef{Section: store.SecRankings, Measure: mc.m}) {
			t.Measures = append(t.Measures, mc.m)
		}
	}
	missing := len(t.Measures)
	for _, b := range []bool{t.TSD, t.GCT, t.TrussRanks} {
		if b {
			missing++
		}
	}
	if missing < 2 {
		return
	}
	start := time.Now()
	p := c.buildAllIdx(c.g, t)
	c.buildTime += time.Since(start)
	c.builds += missing
	if t.TSD {
		c.tsd = p.TSD
	}
	if t.GCT {
		c.gct = p.GCT
	}
	if t.TrussRanks {
		c.hybrid = core.NewHybridFromRankings(c.g, p.TrussRanks)
	}
	for _, m := range t.Measures {
		c.setMeasureRankLocked(m, p.MeasureRanks[m])
	}
	c.persistAfterBuildLocked()
}

// persistAfterBuildLocked is the write path of every from-scratch build:
// it persists immediately, unless a surrounding Prepare deferred the
// writes to batch them into one file rewrite at its end.
func (c *indexCache) persistAfterBuildLocked() {
	if c.deferPersist {
		c.dirty = true
		return
	}
	c.persistLocked()
}

// beginDeferredPersist suspends the per-build persists (Prepare builds up
// to four accelerators; rewriting the file after each would serialize the
// whole store four times); endDeferredPersist flushes once if anything
// was built in between.
func (c *indexCache) beginDeferredPersist() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deferPersist = true
	c.dirty = false
}

func (c *indexCache) endDeferredPersist() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deferPersist = false
	if c.dirty {
		c.dirty = false
		c.persistLocked()
	}
}

// persistLocked rewrites the index file with every section currently in
// memory, first hydrating sections that exist only on disk so a partial
// rebuild never sheds them. Persist failures are recorded for StoreStatus
// but do not fail the query whose build triggered the write. Callers must
// hold c.mu.
func (c *indexCache) persistLocked() {
	if c.dir == "" {
		return
	}
	if c.file != nil {
		if c.tau == nil {
			c.tau = loadSection(c, trussSec(store.SecTruss), (*store.File).Tau)
			if c.sup == nil {
				c.sup = loadSection(c, trussSec(store.SecSupports), (*store.File).Sup)
			}
		}
		if c.tsd == nil {
			c.tsd = loadSection(c, trussSec(store.SecTSD), (*store.File).TSD)
		}
		if c.gct == nil {
			c.gct = loadSection(c, trussSec(store.SecGCT), (*store.File).GCT)
		}
		if c.hybrid == nil {
			if perK := loadSection(c, trussSec(store.SecRankings), (*store.File).Rankings); perK != nil {
				c.hybrid = core.NewHybridFromRankings(c.g, perK)
			}
		}
		for _, m := range core.AllMeasures() {
			if m == MeasureTruss || c.mrank[m] != nil {
				continue
			}
			ref := store.SectionRef{Section: store.SecRankings, Measure: m}
			if perK := loadSection(c, ref, func(f *store.File) ([][]core.VertexScore, error) {
				return f.MeasureRankings(m)
			}); perK != nil {
				c.setMeasureRankLocked(m, perK)
			}
		}
		for _, m := range core.AllMeasures() {
			if c.pfrank[m] != nil {
				continue
			}
			ref := store.SectionRef{Section: store.SecPFree, Measure: m}
			if ranked := loadSection(c, ref, func(f *store.File) ([]core.VertexScore, error) {
				return f.PFreeRanking(m)
			}); ranked != nil {
				c.setPFreeRankLocked(m, ranked)
			}
		}
	}
	ix := store.Indexes{Tau: c.tau, Sup: c.sup, TSD: c.tsd, GCT: c.gct, Epoch: uint64(c.epoch)}
	if c.hybrid != nil {
		ix.Rankings = c.hybrid.Rankings()
	}
	if len(c.mrank) > 0 {
		ix.MeasureRankings = c.mrank
	}
	if len(c.pfrank) > 0 {
		ix.PFree = c.pfrank
	}
	path := store.PathIn(c.dir)
	if err := store.Save(path, c.g, ix); err != nil {
		c.saveErr = err
		return
	}
	c.saveErr = nil
	if f, err := store.OpenFile(path, c.g, store.WithMode(c.mode)); err == nil {
		c.file = f
		c.adoptFile(f)
		c.bad = nil // the rewrite replaced any damaged section
	}
}

func (c *indexCache) hasTau() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tau != nil
}

func (c *indexCache) hasTSD() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tsd != nil
}

func (c *indexCache) hasGCT() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gct != nil
}

func (c *indexCache) hasHybrid() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hybrid != nil
}

// onDisk reports whether truss section s can be loaded from the
// warm-start file — the "cheap to have" signal the cost estimates use. A
// section that failed to load is not cheap: it will be rebuilt.
func (c *indexCache) onDisk(s store.Section) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file != nil && c.file.Has(s) && !c.bad[trussSec(s)]
}

// storeMmap reports whether the warm-start file serves zero-copy views; a
// "load" is then O(n) slice-header surgery over the mapping instead of an
// O(m) read-and-decode, and the cost estimates price it accordingly.
func (c *indexCache) storeMmap() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.file != nil && c.file.Mode() == store.ModeMmap
}

// --- online (Algorithm 3) ---

// onlineEngine and every other built-in engine of a snapshot borrow
// their scorers from the snapshot's one MeasurePools.
type onlineEngine struct {
	eng   *core.Online
	truss *core.ScorerPool // point queries
	w     workload
}

func newOnlineEngine(pools core.MeasurePools, w workload) *onlineEngine {
	return &onlineEngine{eng: core.NewOnlineWith(pools), truss: pools.Of(MeasureTruss), w: w}
}

func (e *onlineEngine) Name() string { return "online" }

// Measures: the online scan is measure-generic — it plugs in whichever
// scorer the query's measure names.
func (e *onlineEngine) Measures() []Measure { return AllMeasures() }

func (e *onlineEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
}

func (e *onlineEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.eng.Graph(), v, k); err != nil {
		return 0, err
	}
	return e.truss.Score(v, k), nil
}

func (e *onlineEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.eng.Graph(), v, k); err != nil {
		return nil, err
	}
	return e.truss.Contexts(v, k), nil
}

func (e *onlineEngine) Cost(q Query) Estimate {
	return Estimate{Query: e.w.searchWork(e.w.egoWork, q) + e.w.contextWork(q)}
}

// --- bound (Algorithm 4) ---

type boundEngine struct {
	eng   *core.Bound
	truss *core.ScorerPool // point queries
	cache *indexCache
	w     workload
}

func newBoundEngine(pools core.MeasurePools, w workload, cache *indexCache) *boundEngine {
	// The searcher reads the global truss decomposition through the DB
	// cache, so the per-query sparsification cost is one edge filter once
	// the decomposition is cached (or loaded from the index store).
	return &boundEngine{
		eng:   core.NewBoundWithTau(pools, cache.trussTau),
		truss: pools.Of(MeasureTruss),
		cache: cache,
		w:     w,
	}
}

func (e *boundEngine) Name() string { return "bound" }

// Measures: the bound framework serves every measure — each supplies its
// own upper bound (core.MeasureUpperBound) to the same ranked scan.
func (e *boundEngine) Measures() []Measure { return AllMeasures() }

func (e *boundEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
}

func (e *boundEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.eng.Graph(), v, k); err != nil {
		return 0, err
	}
	return e.truss.Score(v, k), nil
}

func (e *boundEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.eng.Graph(), v, k); err != nil {
		return nil, err
	}
	return e.truss.Contexts(v, k), nil
}

func (e *boundEngine) Cost(q Query) Estimate {
	if m := q.Measure.Normalize(); m != MeasureTruss {
		// The non-truss bound pass replaces sparsification with one
		// triangle count over the full graph (the per-vertex ego-edge
		// input of the measure's upper bound), then prunes the same way.
		triangles := e.w.m * e.w.avgDeg / 2
		return Estimate{Query: triangles + e.w.searchWork(e.w.egoWork, q)/8 + e.w.contextWork(q)}
	}
	// Sparsification needs the global truss decomposition: a fresh
	// decomposition when nothing is cached, a sequential O(m) load when
	// the index store has it, and only the edge filter once in memory.
	sparsify := e.w.m * e.w.avgDeg / 2
	if e.cache.hasTau() {
		sparsify = e.w.m
	} else if e.cache.onDisk(store.SecTruss) {
		sparsify = 2 * e.w.m
		if e.cache.storeMmap() {
			// The decomposition is an O(1) view into the mapping; only the
			// per-query edge filter remains.
			sparsify = e.w.m
		}
	}
	return Estimate{Query: sparsify + e.w.searchWork(e.w.egoWork, q)/8 + e.w.contextWork(q)}
}

// --- tsd (Algorithms 5-6) ---

type tsdEngine struct {
	cache *indexCache
	w     workload
}

func (e *tsdEngine) Name() string { return "tsd" }

// Measures: the TSD forest encodes trussness weights — truss only.
func (e *tsdEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *tsdEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// TSD.Search scores through goroutine-private TSDScorers, so
	// concurrent searches over the shared index need no serialization.
	return core.NewTSD(e.cache.tsdIndex()).Search(ctx, q.params())
}

func (e *tsdEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	// A fresh scorer per point query keeps this path concurrency-safe
	// (TSDIndex.Score itself shares scratch across calls).
	return e.cache.tsdIndex().Scorer().Score(v, k), nil
}

func (e *tsdEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.cache.tsdIndex().Contexts(v, k), nil
}

func (e *tsdEngine) Cost(q Query) Estimate {
	est := Estimate{Query: e.w.searchWork(e.w.m, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	if !e.cache.hasTSD() {
		if e.cache.onDisk(store.SecTSD) {
			// Deserializing is a sequential O(m) read — or O(n) slice-header
			// surgery under mmap — far below the Σd² build, so routing
			// treats a persisted index as nearly ready.
			est.Build = e.w.m
			if e.cache.storeMmap() {
				est.Build = e.w.n
			}
		} else {
			est.Build = e.w.egoWork
		}
	}
	return est
}

// --- gct (Algorithms 7-8) ---

type gctEngine struct {
	cache *indexCache
	w     workload
}

func (e *gctEngine) Name() string { return "gct" }

// Measures: the supernode compression encodes trussness — truss only.
func (e *gctEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *gctEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.NewGCT(e.cache.gctIndex()).Search(ctx, q.params())
}

func (e *gctEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	return e.cache.gctIndex().Score(v, k), nil
}

func (e *gctEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.cache.gctIndex().Contexts(v, k), nil
}

func (e *gctEngine) Cost(q Query) Estimate {
	// Exact scores are O(log d(v)) reads, so a query is ~n work.
	est := Estimate{Query: e.w.searchWork(e.w.n, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	if !e.cache.hasGCT() {
		if e.cache.onDisk(store.SecGCT) {
			// A persisted index loads in one O(m) sequential read, or O(n)
			// view construction under mmap.
			est.Build = e.w.m
			if e.cache.storeMmap() {
				est.Build = e.w.n
			}
		} else {
			// The GCT build does slightly more work than TSD's
			// (compression on top of the same per-ego decompositions).
			est.Build = 1.2 * e.w.egoWork
		}
	}
	return est
}

// --- hybrid (paper Exp-4) ---

type hybridEngine struct {
	cache *indexCache
	w     workload
}

func (e *hybridEngine) Name() string { return "hybrid" }

// Measures: the hybrid rankings are truss-scored — truss only (the
// native measure engines hold the other measures' rankings).
func (e *hybridEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *hybridEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return e.cache.hybridEngine().Search(ctx, q.params())
}

func (e *hybridEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	return e.cache.gctIndex().Score(v, k), nil
}

func (e *hybridEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.cache.gctIndex().Contexts(v, k), nil
}

func (e *hybridEngine) Cost(q Query) Estimate {
	// Reading the precomputed ranking is nearly free; recovering contexts
	// online is one ego decomposition per answer vertex.
	est := Estimate{Query: float64(q.R) + e.w.contextWork(q)}
	if !e.cache.hasHybrid() {
		if e.cache.onDisk(store.SecRankings) {
			// Persisted rankings skip both the ranking pass and the GCT
			// build: reconstruction is an O(n) read.
			est.Build = e.w.n
		} else {
			est.Build = float64(8) * e.w.n
			if !e.cache.hasGCT() {
				if e.cache.onDisk(store.SecGCT) {
					est.Build += e.w.m
				} else {
					est.Build += 1.2 * e.w.egoWork
				}
			}
		}
	}
	return est
}

// --- comp / kcore native measure engines ---

// measureEngine is the native engine of one non-truss measure (comp:
// component, kcore: core). It is routable for that measure only — truss
// queries never see it — and it is the measure's fast path: once the
// per-k rankings are prepared (Prepare("comp"/"kcore"), a Batch that
// routes to it, or a v2 index store holding the measure's section), a
// top-r query is an O(r) prefix read instead of a full ego-network scan.
// Cold, it runs the snapshot's online scan under its measure. Scores and
// contexts come from the measure's pool in the snapshot's MeasurePools.
type measureEngine struct {
	name    string
	measure Measure
	pool    *core.ScorerPool
	online  *core.Online
	w       workload
	cache   *indexCache
}

func newMeasureEngine(name string, m Measure, pools core.MeasurePools, online *core.Online, w workload, cache *indexCache) *measureEngine {
	return &measureEngine{name: name, measure: m, pool: pools.Of(m), online: online, w: w, cache: cache}
}

func (e *measureEngine) Name() string { return e.name }

// Measures: exactly the one diversity definition the engine computes.
func (e *measureEngine) Measures() []Measure { return []Measure{e.measure} }

func (e *measureEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if m := q.Measure.Normalize(); q.Measure != "" && m != e.measure {
		return nil, nil, &UnsupportedMeasureError{Engine: e.name, Measure: m}
	}
	p := q.params()
	p.Measure = e.measure
	// Rankings fast path: serve from the prepared (or store-loaded) per-k
	// ranking, the same strategy the hybrid engine uses for truss. The
	// answer is byte-identical to the online scan — same scores, same
	// canonical order, same contexts — only cheaper.
	if perK := e.cache.measureRankings(e.measure, false); perK != nil {
		return core.NewRanked(e.pool, perK).Search(ctx, p)
	}
	return e.online.Search(ctx, p)
}

func (e *measureEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.pool.Graph(), v, k); err != nil {
		return 0, err
	}
	return e.pool.Score(v, k), nil
}

func (e *measureEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.pool.Graph(), v, k); err != nil {
		return nil, err
	}
	return e.pool.Contexts(v, k), nil
}

func (e *measureEngine) Cost(q Query) Estimate {
	// With the per-k rankings ready the query is an O(r) prefix read plus
	// per-answer context recovery; on disk they are one cheap sequential
	// load. Cold, the rankings build costs slightly more than one online
	// scan (it scores every k, not one), so a single cold query routes to
	// online/bound while batches amortize the build here — Batch prepares
	// the rankings before running when it picks this engine.
	est := Estimate{Query: float64(q.R) + e.w.contextWork(q)}
	switch {
	case e.cache.hasMeasureRank(e.measure):
		// ready: nothing to build
	case e.cache.onDiskMeasureRank(e.measure):
		est.Build = e.w.n
	default:
		factor := 1.25
		if e.measure == MeasureCore {
			// The core rankings need one component count per k.
			factor = 1.5
		}
		est.Build = factor * e.w.egoWork
	}
	return est
}

// singleVertexErr folds the context check into single-vertex validation.
func singleVertexErr(ctx context.Context, g *Graph, v, k int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return checkVertex(g, v, k)
}

// --- pfree (parameter-free diversity, arXiv:1908.11612) ---

// pfreeEngine adapts internal/pfree into the registry: the only engine
// that serves queries without a K, and the only one k-less queries route
// to. It serves every measure (it declares all three via MeasureLister),
// and it is prepared per measure: once the pfree ranking is derived
// (Prepare("pfree"), a Batch that routes to it, a query that finds the
// per-k tables already built, or a store holding the pfree slab), a
// k-less top-r query is an O(r) prefix read; cold, it falls back to the
// online all-k scan.
type pfreeEngine struct {
	g     *Graph
	w     workload
	cache *indexCache
	pools core.MeasurePools // the snapshot's, shared with its other engines
}

func (e *pfreeEngine) Name() string { return "pfree" }

// Measures: the parameter-free objective aggregates any measure's per-k
// score vector, so all three qualify.
func (e *pfreeEngine) Measures() []Measure { return AllMeasures() }

// ParameterFree declares the k-less contract to the router and
// validators.
func (e *pfreeEngine) ParameterFree() bool { return true }

func (e *pfreeEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	if q.K != 0 {
		return nil, nil, &BadQueryError{Engine: "pfree", K: q.K,
			Reason: "engine is parameter-free: leave k unset (0)"}
	}
	m := q.Measure.Normalize()
	p := q.params()
	p.Measure = m
	// The prepared/online split lives in the Searcher; both paths answer
	// byte-identically, the ranking only removes the scan.
	ranked := e.cache.pfreeRanking(m, false)
	return pfree.NewSearcher(e.pools.Of(m), ranked).Search(ctx, p)
}

// pointErr validates a single-vertex pfree query: the vertex must be in
// range and k must be left at 0 — the objective chooses the level.
func (e *pfreeEngine) pointErr(ctx context.Context, v, k int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if v < 0 || int(v) >= e.g.N() {
		return fmt.Errorf("trussdiv: vertex %d out of range [0,%d)", v, e.g.N())
	}
	if k != 0 {
		return &BadQueryError{Engine: "pfree", K: k,
			Reason: "engine is parameter-free: leave k unset (0)"}
	}
	return nil
}

// Score returns the parameter-free diversity of one vertex under the
// truss measure (the default measure, as on every point path); k must
// be 0.
func (e *pfreeEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := e.pointErr(ctx, v, k); err != nil {
		return 0, err
	}
	return pfree.ScoreWith(e.pools.Of(MeasureTruss), v), nil
}

// Contexts returns the vertex's contexts at its discriminating level
// k* = max(score, 2) under the truss measure; k must be 0.
func (e *pfreeEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := e.pointErr(ctx, v, k); err != nil {
		return nil, err
	}
	return pfree.ContextsWith(e.pools.Of(MeasureTruss), v), nil
}

func (e *pfreeEngine) Cost(q Query) Estimate {
	// Ready: an O(r) prefix read plus context recovery — contexts cost two
	// ego decompositions per answer vertex (level probe + recovery). On
	// disk: one cheap sequential slab load. Derivable from per-k tables
	// that already exist: O(table) surgery, priced like a store load. Cold:
	// the per-k source must be built first (all-k scoring, slightly above
	// one online scan), amortized by Batch exactly like comp/kcore.
	m := q.Measure.Normalize()
	est := Estimate{Query: float64(q.R) + 2*e.w.contextWork(q)}
	switch {
	case e.cache.hasPFreeRank(m):
		// ready: nothing to build
	case e.cache.onDiskPFreeRank(m):
		est.Build = e.w.n
	case e.cache.hasPerKForPFree(m):
		est.Build = 2 * e.w.n
	default:
		factor := 1.25
		if m == MeasureCore {
			factor = 1.5
		}
		est.Build = factor * e.w.egoWork
	}
	return est
}
