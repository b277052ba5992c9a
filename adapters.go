package trussdiv

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"reflect"
	"runtime"
	"sync"
	"time"

	"trussdiv/internal/core"
	"trussdiv/internal/pfree"
	"trussdiv/internal/store"
	"trussdiv/internal/truss"
)

// indexCache lazily provides and shares the search accelerators of one
// snapshot among the engine adapters of a DB, so e.g. the gct and hybrid
// engines reuse one GCT index. The accelerators live in one table keyed
// by store.SectionRef — the key the index file persists them under — so
// every structure follows the same path: memory, else the warm-start file
// (WithIndexDir), else a build from the graph that is persisted back, so
// the next process warm starts. All accessors are safe for concurrent
// use; builds are not interruptible, so cancellation is observed before a
// build starts.
type indexCache struct {
	g *Graph

	mu    sync.Mutex
	epoch Epoch // the snapshot this cache belongs to; recorded on persist
	// secs holds every structure in memory, one entry per present section:
	//
	//	SecTruss, SecSupports  []int32 (global truss decomposition and its
	//	                       pristine edge supports, indexed by edge ID)
	//	SecTSD                 *core.TSDIndex
	//	SecGCT                 *core.GCTIndex
	//	SecRankings            [][]core.VertexScore (per-k rankings of the
	//	                       entry's measure; truss serves the hybrid engine)
	//	SecPFree               []core.VertexScore (parameter-free ranking)
	secs      map[store.SectionRef]any
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
	// repair consumes them on the next Apply. buildHybrid yields the truss
	// per-k rankings. buildAllIdx is the single-pass multi-structure driver
	// Prepare routes through when two or more ego-derived structures are
	// missing at once.
	buildTau    func(*Graph) (tau, sup []int32)
	buildTSD    func(*Graph) *core.TSDIndex
	buildGCT    func(*Graph) *core.GCTIndex
	buildHybrid func(*core.GCTIndex) *core.Hybrid
	buildMRank  func(*Graph, core.Measure) [][]core.VertexScore
	buildAllIdx func(*Graph, core.BuildTargets) *core.BuildProducts
	builds      int
}

// secRef keys section s of measure m in the table and the index file.
func secRef(s store.Section, m Measure) store.SectionRef {
	return store.SectionRef{Section: s, Measure: m.Normalize()}
}

// Table keys of the truss-only sections, and of the hybrid engine's
// rankings.
var (
	tauRef        = secRef(store.SecTruss, MeasureTruss)
	supRef        = secRef(store.SecSupports, MeasureTruss)
	tsdRef        = secRef(store.SecTSD, MeasureTruss)
	gctRef        = secRef(store.SecGCT, MeasureTruss)
	trussRanksRef = secRef(store.SecRankings, MeasureTruss)
)

// sectionReaders decode a table section from the warm-start file, one
// reader per store.Section; the file's other sections (epoch, graph) are
// not table entries.
var sectionReaders = map[store.Section]func(*store.File, core.Measure) (any, error){
	store.SecTruss:    func(f *store.File, _ core.Measure) (any, error) { return f.Tau() },
	store.SecSupports: func(f *store.File, _ core.Measure) (any, error) { return f.Sup() },
	store.SecTSD:      func(f *store.File, _ core.Measure) (any, error) { return f.TSD() },
	store.SecGCT:      func(f *store.File, _ core.Measure) (any, error) { return f.GCT() },
	store.SecRankings: func(f *store.File, m core.Measure) (any, error) {
		perK, err := f.MeasureRankings(m)
		if perK != nil && m == MeasureTruss {
			perK = trussRankings(perK)
		}
		return perK, err
	},
	store.SecPFree: func(f *store.File, m core.Measure) (any, error) { return f.PFreeRanking(m) },
}

// trussRankings pads a truss per-k table the way core.NewHybridFromRankings
// does, so the table is held, served and persisted exactly as the hybrid
// engine's Rankings.
func trussRankings(perK [][]core.VertexScore) [][]core.VertexScore {
	if len(perK) < 3 {
		return make([][]core.VertexScore, 3)
	}
	return perK
}

// newIndexCache wires a cache to its builders and, when cfg names an
// index directory, validates any index file found there. A missing file
// is a normal cold start; a file that fails validation (stale
// fingerprint, wrong version, corruption) is recorded in loadErr — the
// typed error StoreStatus exposes — and the cache falls back to building.
func newIndexCache(g *Graph, cfg dbConfig) *indexCache {
	workers := cfg.buildWorkers
	c := &indexCache{
		g:    g,
		secs: make(map[store.SectionRef]any),
		dir:  cfg.indexDir,
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
	c.put(tsdRef, cfg.tsdIdx)
	c.put(gctRef, cfg.gctIdx)
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
	ep := loadSection(c, secRef(store.SecEpoch, MeasureTruss), (*store.File).Epoch)
	return Epoch(ep)
}

// advance derives the next snapshot's cache from this one after an update
// batch: every index in memory is repaired incrementally against the
// shared edited graph (copy-on-write, so this cache keeps answering for
// in-flight readers). The TSD and GCT indexes rebuild only the affected
// ego-networks; the global truss decomposition is repaired by the bounded
// region descent of truss.Repair (falling back to invalidation — and a
// lazy parallel rebuild — when the affected region exceeds its budget or
// the supports were not retained); the per-k and parameter-free rankings
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
	old := maps.Clone(c.secs)
	next := &indexCache{
		g:           newG,
		secs:        make(map[store.SectionRef]any, len(old)),
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

	// next is not shared until advance returns: no lock needed below.
	var stats *core.UpdateStats
	if tsd, ok := old[tsdRef].(*core.TSDIndex); ok {
		var idx *core.TSDIndex
		idx, stats = tsd.UpdateOnto(newG, ins, del)
		next.put(tsdRef, idx)
	}
	if gct, ok := old[gctRef].(*core.GCTIndex); ok {
		var idx *core.GCTIndex
		idx, stats = gct.UpdateOnto(newG, ins, del)
		next.put(gctRef, idx)
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
	tau, _ := old[tauRef].([]int32)
	sup, _ := old[supRef].([]int32)
	if tau != nil && sup != nil {
		if rr, ok := truss.Repair(oldG, newG, tau, sup, ins, del, 0); ok {
			next.put(tauRef, rr.Tau)
			next.put(supRef, rr.Sup)
			st := ensureStats()
			st.TrussRepaired = true
			st.TrussRegion = rr.Region
		}
	}

	// Ranking tables: patch in place by re-scoring only the vertices whose
	// ego-networks the batch touched. The truss rankings re-score against
	// the repaired GCT index, so they need one in memory; without it they
	// fall back to invalidation.
	affected := sync.OnceValue(func() []int32 { return core.AffectedVertices(oldG, newG, ins, del) })
	gct, _ := next.secs[gctRef].(*core.GCTIndex)
	for ref, v := range old {
		var patched any
		switch {
		case ref == trussRanksRef:
			if gct == nil {
				continue
			}
			prev := core.NewHybridFromRankings(oldG, v.([][]core.VertexScore))
			patched = core.PatchHybrid(prev, gct, affected()).Rankings()
		case ref.Section == store.SecRankings:
			patched = core.PatchMeasureRankings(newG, ref.Measure, v.([][]core.VertexScore), affected())
		case ref.Section == store.SecPFree:
			// The parameter-free ranking splices the same affected set:
			// re-score only those vertices' all-k vectors, merge canonically.
			patched = pfree.PatchRanking(newG, ref.Measure, v.([]core.VertexScore), affected())
		default:
			continue
		}
		next.put(ref, patched)
		ensureStats().RankingsPatched++
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
	if !c.loadable(ref) {
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

// loadable reports whether the warm-start file holds ref in a form not
// yet found damaged. Callers must hold c.mu.
func (c *indexCache) loadable(ref store.SectionRef) bool {
	return c.file != nil && c.file.HasMeasure(ref.Section, ref.Measure) && !c.bad[ref]
}

// put records v at ref. A nil slice or pointer is no structure and
// leaves the table as it is. Callers must hold c.mu (or own c alone).
func (c *indexCache) put(ref store.SectionRef, v any) {
	if rv := reflect.ValueOf(v); rv.IsValid() && !rv.IsNil() {
		c.secs[ref] = v
	}
}

// load moves ref from the warm-start file into the table and returns it,
// or nil when the file cannot supply it. Callers must hold c.mu.
func (c *indexCache) load(ref store.SectionRef) any {
	read, ok := sectionReaders[ref.Section]
	if !ok {
		return nil
	}
	c.put(ref, loadSection(c, ref, func(f *store.File) (any, error) { return read(f, ref.Measure) }))
	return c.secs[ref]
}

// get returns the structure at ref, typed for the caller; see getLocked.
func get[T any](c *indexCache, ref store.SectionRef, build bool) T {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, _ := c.getLocked(ref, build).(T)
	return v
}

// getLocked returns the structure at ref: from memory, else from the
// warm-start file, else — for a pfree ranking — derived from a per-k
// table already in memory or on disk, else, only when build is set,
// built from the graph and persisted. Without build, a structure found
// nowhere is nil and the engine falls back to scanning. Callers must hold
// c.mu.
func (c *indexCache) getLocked(ref store.SectionRef, build bool) any {
	if v, ok := c.secs[ref]; ok {
		return v
	}
	if v := c.load(ref); v != nil {
		if ref == tauRef {
			// Format v3 persists the supports next to the decomposition, so
			// a warm start repairs incrementally on the very first Apply.
			// Older files lack the section and the first Apply rebuilds; the
			// rebuild re-derives both and repair resumes.
			c.load(supRef)
		}
		return v
	}
	if ref.Section == store.SecPFree {
		// O(table) slice surgery, cheap enough for the query path and not
		// counted as a build; persisted so the next boot loads the slab
		// instead of re-deriving.
		if perK, ok := c.getLocked(secRef(store.SecRankings, ref.Measure), false).([][]core.VertexScore); ok {
			c.put(ref, pfree.RankingFromPerK(perK))
			c.persistAfterBuildLocked()
			return c.secs[ref]
		}
	}
	if !build {
		return nil
	}
	// A nested build (the GCT index under the truss rankings) adds its own
	// time; measuring from before it counts that time once.
	start, before := time.Now(), c.buildTime
	v := c.build(ref)
	c.buildTime = before + time.Since(start)
	c.builds++
	c.put(ref, v)
	c.persistAfterBuildLocked()
	return c.secs[ref]
}

// build constructs the structure at ref from the graph; the truss
// decomposition records its supports alongside. Callers must hold c.mu.
func (c *indexCache) build(ref store.SectionRef) any {
	switch ref.Section {
	case store.SecTruss:
		tau, sup := c.buildTau(c.g)
		c.put(supRef, sup)
		return tau
	case store.SecTSD:
		return c.buildTSD(c.g)
	case store.SecGCT:
		return c.buildGCT(c.g)
	case store.SecRankings:
		if ref.Measure == MeasureTruss {
			// Scores are exact GCT reads.
			idx, _ := c.getLocked(gctRef, true).(*core.GCTIndex)
			return c.buildHybrid(idx).Rankings()
		}
		return c.buildMRank(c.g, ref.Measure)
	case store.SecPFree:
		perK, _ := c.getLocked(secRef(store.SecRankings, ref.Measure), true).([][]core.VertexScore)
		return pfree.RankingFromPerK(perK)
	}
	panic("trussdiv: no builder for index section " + ref.String())
}

// secState is how ready one structure is: what the cost estimates price.
type secState uint8

const (
	secMissing  secState = iota // in neither memory nor the file: a use builds it
	secOnDisk                   // loadable by an O(size) read-and-decode
	secMapped                   // loadable as views into a mapped file (O(n) headers)
	secInMemory                 // ready
)

// state reports how ready the structure at ref is, under one lock.
func (c *indexCache) state(ref store.SectionRef) secState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stateLocked(ref)
}

func (c *indexCache) stateLocked(ref store.SectionRef) secState {
	switch {
	case c.secs[ref] != nil:
		return secInMemory
	case !c.loadable(ref):
		return secMissing
	case c.file.Mode() == store.ModeMmap:
		return secMapped
	}
	return secOnDisk
}

// prepareRefs lists the structures Prepare readies for each engine it
// covers. The bound engine's per-query sparsification reads the global
// truss decomposition; the native measure engines serve prepared per-k
// rankings in O(r); pfree is prepared for every measure it serves, each
// ranking derived in O(table) from that measure's per-k rankings (built
// if missing). The online engine is stateless.
var prepareRefs = map[string][]store.SectionRef{
	"online": nil,
	"bound":  {tauRef},
	"tsd":    {tsdRef},
	"gct":    {gctRef},
	"hybrid": {trussRanksRef},
	"comp":   {secRef(store.SecRankings, MeasureComponent)},
	"kcore":  {secRef(store.SecRankings, MeasureCore)},
	"pfree": {
		secRef(store.SecPFree, MeasureTruss),
		secRef(store.SecPFree, MeasureComponent),
		secRef(store.SecPFree, MeasureCore),
	},
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
	c.mu.Lock()
	defer c.mu.Unlock()
	need := make(map[store.SectionRef]bool)
	for _, name := range names {
		for _, ref := range prepareRefs[name] {
			if ref.Section == store.SecPFree {
				// A missing pfree ranking derives from its measure's per-k
				// rankings: only those can need an extraction pass.
				if c.stateLocked(ref) != secMissing {
					continue
				}
				ref.Section = store.SecRankings
			}
			if c.stateLocked(ref) == secMissing {
				need[ref] = true
			}
		}
	}
	t := core.BuildTargets{
		TSD: need[tsdRef],
		GCT: need[gctRef],
		// With a GCT index in memory the truss rankings are a cheap index
		// read, not an extraction pass — leave them to buildHybrid.
		TrussRanks: need[trussRanksRef] && c.secs[gctRef] == nil,
	}
	for _, m := range []Measure{MeasureComponent, MeasureCore} {
		if need[secRef(store.SecRankings, m)] {
			t.Measures = append(t.Measures, m)
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
		c.put(tsdRef, p.TSD)
	}
	if t.GCT {
		c.put(gctRef, p.GCT)
	}
	if t.TrussRanks {
		c.put(trussRanksRef, trussRankings(p.TrussRanks))
	}
	for _, m := range t.Measures {
		c.put(secRef(store.SecRankings, m), p.MeasureRanks[m])
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
		for _, ref := range c.file.Sections() {
			if c.secs[ref] == nil {
				c.load(ref)
			}
		}
	}
	ix := store.Indexes{
		Epoch:           uint64(c.epoch),
		MeasureRankings: make(map[core.Measure][][]core.VertexScore),
		PFree:           make(map[core.Measure][]core.VertexScore),
	}
	for ref, v := range c.secs {
		switch ref.Section {
		case store.SecTruss:
			ix.Tau = v.([]int32)
		case store.SecSupports:
			ix.Sup = v.([]int32)
		case store.SecTSD:
			ix.TSD = v.(*core.TSDIndex)
		case store.SecGCT:
			ix.GCT = v.(*core.GCTIndex)
		case store.SecRankings:
			if ref.Measure == MeasureTruss {
				ix.Rankings = v.([][]core.VertexScore)
			} else {
				ix.MeasureRankings[ref.Measure] = v.([][]core.VertexScore)
			}
		case store.SecPFree:
			ix.PFree[ref.Measure] = v.([]core.VertexScore)
		}
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

// --- point queries shared by the engines ---

// poolPoints serves an engine's point queries from one measure's scorer
// pool — the snapshot's, shared with its other engines.
type poolPoints struct{ pool *core.ScorerPool }

func (p poolPoints) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, p.pool.Graph(), v, k); err != nil {
		return 0, err
	}
	return p.pool.Score(v, k), nil
}

func (p poolPoints) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, p.pool.Graph(), v, k); err != nil {
		return nil, err
	}
	return p.pool.Contexts(v, k), nil
}

// gctPoints serves point queries from the GCT index (O(log d(v)) reads),
// building it on first use.
type gctPoints struct{ cache *indexCache }

func (p gctPoints) index() *core.GCTIndex { return get[*core.GCTIndex](p.cache, gctRef, true) }

func (p gctPoints) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, p.cache.g, v, k); err != nil {
		return 0, err
	}
	return p.index().Score(v, k), nil
}

func (p gctPoints) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, p.cache.g, v, k); err != nil {
		return nil, err
	}
	return p.index().Contexts(v, k), nil
}

// singleVertexErr folds the context check into single-vertex validation.
func singleVertexErr(ctx context.Context, g *Graph, v, k int32) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return checkVertex(g, v, k)
}

// measureParams returns q's search parameters pinned to m, the one
// measure engine name serves; a query naming another measure is rejected.
func measureParams(name string, m Measure, q Query) (core.Params, error) {
	if qm := q.Measure.Normalize(); q.Measure != "" && qm != m {
		return core.Params{}, &UnsupportedMeasureError{Engine: name, Measure: qm}
	}
	p := q.params()
	p.Measure = m
	return p, nil
}

// --- online (Algorithm 3) ---

// onlineEngine and every other built-in engine of a snapshot borrow
// their scorers from the snapshot's one MeasurePools.
type onlineEngine struct {
	poolPoints // truss point queries
	eng        *core.Online
	w          workload
}

func newOnlineEngine(pools core.MeasurePools, w workload) *onlineEngine {
	return &onlineEngine{poolPoints: poolPoints{pools.Of(MeasureTruss)}, eng: core.NewOnlineWith(pools), w: w}
}

func (e *onlineEngine) Name() string { return "online" }

// Measures: the online scan is measure-generic — it plugs in whichever
// scorer the query's measure names.
func (e *onlineEngine) Measures() []Measure { return AllMeasures() }

func (e *onlineEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
}

func (e *onlineEngine) Cost(q Query) Estimate {
	return Estimate{Query: e.w.searchWork(e.w.egoWork, q) + e.w.contextWork(q)}
}

// --- bound (Algorithm 4) ---

type boundEngine struct {
	poolPoints // truss point queries
	eng        *core.Bound
	cache      *indexCache
	w          workload
}

func newBoundEngine(pools core.MeasurePools, w workload, cache *indexCache) *boundEngine {
	// The searcher reads the global truss decomposition through the DB
	// cache, so the per-query sparsification cost is one edge filter once
	// the decomposition is cached (or loaded from the index store).
	tau := func() []int32 { return get[[]int32](cache, tauRef, true) }
	return &boundEngine{
		poolPoints: poolPoints{pools.Of(MeasureTruss)},
		eng:        core.NewBoundWithTau(pools, tau),
		cache:      cache,
		w:          w,
	}
}

func (e *boundEngine) Name() string { return "bound" }

// Measures: the bound framework serves every measure — each supplies its
// own upper bound (core.MeasureUpperBound) to the same ranked scan.
func (e *boundEngine) Measures() []Measure { return AllMeasures() }

func (e *boundEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	return e.eng.Search(ctx, q.params())
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
	// the index store has it, and only the edge filter once in memory —
	// or mapped, where the decomposition is an O(1) view.
	sparsify := e.w.m * e.w.avgDeg / 2
	switch e.cache.state(tauRef) {
	case secInMemory, secMapped:
		sparsify = e.w.m
	case secOnDisk:
		sparsify = 2 * e.w.m
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

func (e *tsdEngine) index() *core.TSDIndex { return get[*core.TSDIndex](e.cache, tsdRef, true) }

func (e *tsdEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	// TSD.Search scores through goroutine-private TSDScorers, so
	// concurrent searches over the shared index need no serialization.
	return core.NewTSD(e.index()).Search(ctx, q.params())
}

func (e *tsdEngine) Score(ctx context.Context, v, k int32) (int, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return 0, err
	}
	// A fresh scorer per point query keeps this path concurrency-safe
	// (TSDIndex.Score itself shares scratch across calls).
	return e.index().Scorer().Score(v, k), nil
}

func (e *tsdEngine) Contexts(ctx context.Context, v, k int32) ([][]int32, error) {
	if err := singleVertexErr(ctx, e.cache.g, v, k); err != nil {
		return nil, err
	}
	return e.index().Contexts(v, k), nil
}

func (e *tsdEngine) Cost(q Query) Estimate {
	est := Estimate{Query: e.w.searchWork(e.w.m, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	// Deserializing a persisted index is a sequential O(m) read — or O(n)
	// slice-header surgery under mmap — far below the Σd² build, so
	// routing treats it as nearly ready.
	switch e.cache.state(tsdRef) {
	case secOnDisk:
		est.Build = e.w.m
	case secMapped:
		est.Build = e.w.n
	case secMissing:
		est.Build = e.w.egoWork
	}
	return est
}

// --- gct (Algorithms 7-8) ---

type gctEngine struct {
	gctPoints
	w workload
}

func (e *gctEngine) Name() string { return "gct" }

// Measures: the supernode compression encodes trussness — truss only.
func (e *gctEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *gctEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	return core.NewGCT(e.index()).Search(ctx, q.params())
}

func (e *gctEngine) Cost(q Query) Estimate {
	// Exact scores are O(log d(v)) reads, so a query is ~n work.
	est := Estimate{Query: e.w.searchWork(e.w.n, q)}
	if q.IncludeContexts {
		est.Query += float64(q.R) * e.w.avgDeg
	}
	// A persisted index loads in one O(m) sequential read, or O(n) view
	// construction under mmap. The build does slightly more work than
	// TSD's (compression on top of the same per-ego decompositions).
	switch e.cache.state(gctRef) {
	case secOnDisk:
		est.Build = e.w.m
	case secMapped:
		est.Build = e.w.n
	case secMissing:
		est.Build = 1.2 * e.w.egoWork
	}
	return est
}

// --- hybrid (paper Exp-4) ---

// hybridEngine serves the truss row of the per-k rankings: a top-r query
// is a prefix read of the truss rankings plus per-answer context recovery
// from the snapshot's truss scorer pool. Cold, it builds the rankings
// from the GCT index (building that too if needed); point queries read
// the GCT index.
type hybridEngine struct {
	gctPoints
	pool *core.ScorerPool // truss context recovery
	w    workload
}

func (e *hybridEngine) Name() string { return "hybrid" }

// Measures: the hybrid rankings are truss-scored — truss only (the
// native measure engines hold the other measures' rankings).
func (e *hybridEngine) Measures() []Measure { return []Measure{MeasureTruss} }

func (e *hybridEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	p, err := measureParams("hybrid", MeasureTruss, q)
	if err != nil {
		return nil, nil, err
	}
	perK := get[[][]core.VertexScore](e.cache, trussRanksRef, true)
	return core.NewRanked(e.pool, perK).Search(ctx, p)
}

func (e *hybridEngine) Cost(q Query) Estimate {
	// Reading the precomputed ranking is nearly free; recovering contexts
	// online is one ego decomposition per answer vertex.
	est := Estimate{Query: float64(q.R) + e.w.contextWork(q)}
	switch e.cache.state(trussRanksRef) {
	case secInMemory:
	case secOnDisk, secMapped:
		// Persisted rankings skip both the ranking pass and the GCT
		// build: reconstruction is an O(n) read.
		est.Build = e.w.n
	default:
		est.Build = float64(8) * e.w.n
		switch e.cache.state(gctRef) {
		case secOnDisk, secMapped:
			est.Build += e.w.m
		case secMissing:
			est.Build += 1.2 * e.w.egoWork
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
	poolPoints
	name    string
	measure Measure
	online  *core.Online
	w       workload
	cache   *indexCache
}

func newMeasureEngine(name string, m Measure, pools core.MeasurePools, online *core.Online, w workload, cache *indexCache) *measureEngine {
	return &measureEngine{poolPoints: poolPoints{pools.Of(m)}, name: name, measure: m, online: online, w: w, cache: cache}
}

func (e *measureEngine) Name() string { return e.name }

// Measures: exactly the one diversity definition the engine computes.
func (e *measureEngine) Measures() []Measure { return []Measure{e.measure} }

func (e *measureEngine) TopR(ctx context.Context, q Query) (*Result, *Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	p, err := measureParams(e.name, e.measure, q)
	if err != nil {
		return nil, nil, err
	}
	// Rankings fast path: serve from the prepared (or store-loaded) per-k
	// ranking, the same strategy the hybrid engine uses for truss. The
	// answer is byte-identical to the online scan — same scores, same
	// canonical order, same contexts — only cheaper.
	if perK := get[[][]core.VertexScore](e.cache, secRef(store.SecRankings, e.measure), false); perK != nil {
		return core.NewRanked(e.pool, perK).Search(ctx, p)
	}
	return e.online.Search(ctx, p)
}

func (e *measureEngine) Cost(q Query) Estimate {
	// With the per-k rankings ready the query is an O(r) prefix read plus
	// per-answer context recovery; on disk they are one cheap sequential
	// load. Cold, the rankings build costs slightly more than one online
	// scan (it scores every k, not one), so a single cold query routes to
	// online/bound while batches amortize the build here — Batch prepares
	// the rankings before running when it picks this engine.
	est := Estimate{Query: float64(q.R) + e.w.contextWork(q)}
	switch e.cache.state(secRef(store.SecRankings, e.measure)) {
	case secInMemory:
	case secOnDisk, secMapped:
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
	ranked := get[[]core.VertexScore](e.cache, secRef(store.SecPFree, m), false)
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
	switch e.cache.state(secRef(store.SecPFree, m)) {
	case secInMemory:
	case secOnDisk, secMapped:
		est.Build = e.w.n
	default:
		est.Build = 2 * e.w.n
		if e.cache.state(secRef(store.SecRankings, m)) == secMissing {
			factor := 1.25
			if m == MeasureCore {
				factor = 1.5
			}
			est.Build = factor * e.w.egoWork
		}
	}
	return est
}
