package trussdiv

import (
	"context"
	"testing"

	"trussdiv/internal/gen"
)

// pinnedEstimate is one router estimate: engine × measure × cache state.
type pinnedEstimate struct {
	state, engine string
	m             Measure
	build, query  float64
}

// TestCostEstimatesPinned pins every built-in engine's Cost — the Build
// and Query terms routing compares — for every measure it serves, in the
// cache states routing distinguishes: cold, warm from a decoded store,
// warm from a mapped store, and prepared in memory; plus the two pfree
// states in between (per-k source in memory, per-k source on disk) and
// the two hybrid ones (GCT index in memory, GCT index on disk). The
// query asks for contexts, so the per-answer recovery term is priced too.
// Any change in how the index cache reports readiness shows up here as a
// changed estimate.
func TestCostEstimatesPinned(t *testing.T) {
	g := gen.CommunityOverlay(gen.OverlayConfig{
		N: 300, Attach: 3, Cliques: 60, MinSize: 4, MaxSize: 7, Seed: 23,
	})
	ctx := context.Background()
	all := []string{"online", "bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}
	perK := []string{"hybrid", "comp", "kcore"}

	// storeWith persists the named engines' structures into a fresh
	// index directory.
	storeWith := func(names []string) string {
		dir := t.TempDir()
		db, err := Open(g, WithIndexDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Prepare(ctx, names...); err != nil {
			t.Fatal(err)
		}
		if st := db.StoreStatus(); st.SaveErr != nil {
			t.Fatal(st.SaveErr)
		}
		return dir
	}
	open := func(prepare []string, opts ...Option) *DB {
		db, err := Open(g, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if len(prepare) > 0 {
			if err := db.Prepare(ctx, prepare...); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	full, ranksOnly, gctOnly := storeWith(all), storeWith(perK), storeWith([]string{"gct"})
	states := []struct {
		name    string
		db      *DB
		engines []string
	}{
		{"cold", open(nil), all},
		{"warm-decode", open(nil, WithIndexDir(full), WithStoreMode(StoreDecode)), all},
		{"warm-mmap", open(nil, WithIndexDir(full)), all},
		{"prepared", open(all), all},
		{"perk-memory", open(perK), []string{"pfree"}},
		{"perk-disk", open(nil, WithIndexDir(ranksOnly)), []string{"pfree"}},
		{"gct-memory", open([]string{"gct"}), []string{"hybrid"}},
		{"gct-disk", open(nil, WithIndexDir(gctOnly)), []string{"hybrid"}},
	}

	var got []pinnedEstimate
	for _, st := range states {
		snap := st.db.Snapshot()
		for _, name := range st.engines {
			eng, err := snap.Engine(name)
			if err != nil {
				t.Fatal(err)
			}
			k := int32(3)
			if isParameterFree(eng) {
				k = 0
			}
			for _, m := range eng.(MeasureLister).Measures() {
				est := eng.Cost(NewQuery(k, 5, WithMeasure(m), WithContexts()))
				got = append(got, pinnedEstimate{st.name, name, m, est.Build, est.Query})
			}
		}
	}
	if len(got) != len(wantEstimates) {
		for _, e := range got {
			t.Logf("{%q, %q, %q, %v, %v},", e.state, e.engine, e.m, e.build, e.query)
		}
		t.Fatalf("recorded %d estimates, want %d", len(got), len(wantEstimates))
	}
	for i, e := range got {
		if e != wantEstimates[i] {
			t.Errorf("%s/%s/%s: Cost = {Build: %v, Query: %v}, want {Build: %v, Query: %v}",
				e.state, e.engine, e.m, e.build, e.query, wantEstimates[i].build, wantEstimates[i].query)
		}
	}
}

// wantEstimates was recorded from the cost model as it stood when the
// index cache kept one field per structure.
var wantEstimates = []pinnedEstimate{
	{"cold", "online", "truss", 0, 38751.528},
	{"cold", "online", "component", 0, 38751.528},
	{"cold", "online", "core", 0, 38751.528},
	{"cold", "bound", "truss", 0, 11503.948},
	{"cold", "bound", "component", 0, 11503.948},
	{"cold", "bound", "core", 0, 11503.948},
	{"cold", "tsd", "truss", 38332, 1419.8},
	{"cold", "gct", "truss", 45998.4, 345.8},
	{"cold", "hybrid", "truss", 48398.4, 424.52799999999996},
	{"cold", "comp", "component", 47915, 424.52799999999996},
	{"cold", "kcore", "core", 57498, 424.52799999999996},
	{"cold", "pfree", "truss", 47915, 844.0559999999999},
	{"cold", "pfree", "component", 47915, 844.0559999999999},
	{"cold", "pfree", "core", 57498, 844.0559999999999},
	{"warm-decode", "online", "truss", 0, 38751.528},
	{"warm-decode", "online", "component", 0, 38751.528},
	{"warm-decode", "online", "core", 0, 38751.528},
	{"warm-decode", "bound", "truss", 0, 7959.028},
	{"warm-decode", "bound", "component", 0, 11503.948},
	{"warm-decode", "bound", "core", 0, 11503.948},
	{"warm-decode", "tsd", "truss", 1374, 1419.8},
	{"warm-decode", "gct", "truss", 1374, 345.8},
	{"warm-decode", "hybrid", "truss", 300, 424.52799999999996},
	{"warm-decode", "comp", "component", 300, 424.52799999999996},
	{"warm-decode", "kcore", "core", 300, 424.52799999999996},
	{"warm-decode", "pfree", "truss", 300, 844.0559999999999},
	{"warm-decode", "pfree", "component", 300, 844.0559999999999},
	{"warm-decode", "pfree", "core", 300, 844.0559999999999},
	{"warm-mmap", "online", "truss", 0, 38751.528},
	{"warm-mmap", "online", "component", 0, 38751.528},
	{"warm-mmap", "online", "core", 0, 38751.528},
	{"warm-mmap", "bound", "truss", 0, 6585.028},
	{"warm-mmap", "bound", "component", 0, 11503.948},
	{"warm-mmap", "bound", "core", 0, 11503.948},
	{"warm-mmap", "tsd", "truss", 300, 1419.8},
	{"warm-mmap", "gct", "truss", 300, 345.8},
	{"warm-mmap", "hybrid", "truss", 300, 424.52799999999996},
	{"warm-mmap", "comp", "component", 300, 424.52799999999996},
	{"warm-mmap", "kcore", "core", 300, 424.52799999999996},
	{"warm-mmap", "pfree", "truss", 300, 844.0559999999999},
	{"warm-mmap", "pfree", "component", 300, 844.0559999999999},
	{"warm-mmap", "pfree", "core", 300, 844.0559999999999},
	{"prepared", "online", "truss", 0, 38751.528},
	{"prepared", "online", "component", 0, 38751.528},
	{"prepared", "online", "core", 0, 38751.528},
	{"prepared", "bound", "truss", 0, 6585.028},
	{"prepared", "bound", "component", 0, 11503.948},
	{"prepared", "bound", "core", 0, 11503.948},
	{"prepared", "tsd", "truss", 0, 1419.8},
	{"prepared", "gct", "truss", 0, 345.8},
	{"prepared", "hybrid", "truss", 0, 424.52799999999996},
	{"prepared", "comp", "component", 0, 424.52799999999996},
	{"prepared", "kcore", "core", 0, 424.52799999999996},
	{"prepared", "pfree", "truss", 0, 844.0559999999999},
	{"prepared", "pfree", "component", 0, 844.0559999999999},
	{"prepared", "pfree", "core", 0, 844.0559999999999},
	{"perk-memory", "pfree", "truss", 600, 844.0559999999999},
	{"perk-memory", "pfree", "component", 600, 844.0559999999999},
	{"perk-memory", "pfree", "core", 600, 844.0559999999999},
	{"perk-disk", "pfree", "truss", 600, 844.0559999999999},
	{"perk-disk", "pfree", "component", 600, 844.0559999999999},
	{"perk-disk", "pfree", "core", 600, 844.0559999999999},
	{"gct-memory", "hybrid", "truss", 2400, 424.52799999999996},
	{"gct-disk", "hybrid", "truss", 3774, 424.52799999999996},
}
