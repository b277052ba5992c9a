package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"trussdiv"
)

// randomUpdates builds a valid edge batch: nIns fresh edges plus nDel
// existing ones, never overlapping. (Local copy of the bench package's
// helper — importing internal/bench here would create an import cycle,
// since its cluster experiment imports this package.)
func randomUpdates(g *trussdiv.Graph, rng *rand.Rand, nIns, nDel int) trussdiv.Updates {
	n := int32(g.N())
	var u trussdiv.Updates
	chosen := map[trussdiv.Edge]bool{}
	for len(u.Insert) < nIns {
		a, b := rng.Int31n(n), rng.Int31n(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		e := trussdiv.Edge{U: a, V: b}
		if g.HasEdge(a, b) || chosen[e] {
			continue
		}
		chosen[e] = true
		u.Insert = append(u.Insert, e)
	}
	edges := g.Edges()
	for len(u.Delete) < nDel && len(u.Delete) < len(edges) {
		e := edges[rng.Intn(len(edges))]
		if chosen[e] {
			continue
		}
		chosen[e] = true
		u.Delete = append(u.Delete, e)
	}
	return u
}

// testGraph is the shared cluster fixture: small enough that every shard
// DB prepares in milliseconds, structured enough that every engine and
// measure has real work to do.
func testGraph(tb testing.TB) *trussdiv.Graph {
	tb.Helper()
	return trussdiv.CommunityOverlay(trussdiv.OverlayConfig{
		N: 240, Attach: 3, Cliques: 48, MinSize: 4, MaxSize: 7, Seed: 17,
	})
}

func openDB(tb testing.TB, g *trussdiv.Graph) *trussdiv.DB {
	tb.Helper()
	db, err := trussdiv.Open(g)
	if err != nil {
		tb.Fatal(err)
	}
	if err := db.Prepare(context.Background()); err != nil {
		tb.Fatal(err)
	}
	return db
}

// testShard is one worker process with an outage switch: while down, every
// request fails 503 before reaching the worker.
type testShard struct {
	worker *Worker
	srv    *httptest.Server
	down   atomic.Bool
}

func (s *testShard) addr() string { return strings.TrimPrefix(s.srv.URL, "http://") }

func startShard(tb testing.TB, g *trussdiv.Graph, lo, hi int32, opts ...WorkerOption) *testShard {
	tb.Helper()
	w, err := NewWorker(openDB(tb, g), lo, hi, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	sh := &testShard{worker: w}
	h := w.Handler()
	sh.srv = httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if sh.down.Load() {
			http.Error(rw, "injected outage", http.StatusServiceUnavailable)
			return
		}
		h.ServeHTTP(rw, r)
	}))
	tb.Cleanup(sh.srv.Close)
	return sh
}

// evenRanges splits [0, n) into count contiguous ranges.
func evenRanges(n, count int) [][2]int32 {
	out := make([][2]int32, count)
	for i := 0; i < count; i++ {
		out[i] = [2]int32{int32(i * n / count), int32((i + 1) * n / count)}
	}
	return out
}

// fastOpts keeps the robustness machinery snappy under test.
func fastOpts(extra ...CoordinatorOption) []CoordinatorOption {
	return append([]CoordinatorOption{
		WithShardTimeout(10 * time.Second),
		WithHedgeDelay(50 * time.Millisecond),
		WithRetries(1),
		WithBackoff(5 * time.Millisecond),
	}, extra...)
}

func startCluster(tb testing.TB, g *trussdiv.Graph, count int, opts ...CoordinatorOption) (*Coordinator, []*testShard) {
	tb.Helper()
	var shards []*testShard
	var groups [][]string
	for _, span := range evenRanges(g.N(), count) {
		sh := startShard(tb, g, span[0], span[1])
		shards = append(shards, sh)
		groups = append(groups, []string{sh.addr()})
	}
	coord, err := NewCoordinator(context.Background(), groups, fastOpts(opts...)...)
	if err != nil {
		tb.Fatal(err)
	}
	return coord, shards
}

// sameAnswer compares a cluster answer to a single-node one up to the
// epoch stamp.
func sameAnswer(tb testing.TB, label string, got, want *trussdiv.Result) {
	tb.Helper()
	if got == nil || want == nil {
		tb.Fatalf("%s: nil result (got %v, want %v)", label, got, want)
	}
	g, w := *got, *want
	g.Epoch, w.Epoch = 0, 0
	if !reflect.DeepEqual(g.TopR, w.TopR) {
		tb.Fatalf("%s: answers differ:\n got %v\nwant %v", label, g.TopR, w.TopR)
	}
	if !reflect.DeepEqual(g.Contexts, w.Contexts) {
		tb.Fatalf("%s: contexts differ:\n got %v\nwant %v", label, g.Contexts, w.Contexts)
	}
}

// TestCoordinatorByteEqualSingleNode is the acceptance bar of the
// cluster tier: for 1, 2, and 4 shards, every routable (engine, measure)
// pair — plus cost routing — answers byte-identically to a single node,
// contexts included, at several worker counts.
func TestCoordinatorByteEqualSingleNode(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	ctx := context.Background()

	type pair struct {
		engine  string
		measure trussdiv.Measure
	}
	pairs := []pair{}
	for _, mi := range single.Measures() {
		pairs = append(pairs, pair{"", mi.Measure}) // cost-routed
		for _, eng := range mi.Engines {
			pairs = append(pairs, pair{eng, mi.Measure})
		}
	}

	for _, count := range []int{1, 2, 4} {
		coord, _ := startCluster(t, g, count)
		for _, p := range pairs {
			for _, workers := range []int{0, 2} {
				label := fmt.Sprintf("shards=%d engine=%q measure=%s workers=%d",
					count, p.engine, p.measure, workers)
				k := int32(4)
				if p.engine == "pfree" {
					k = 0 // the parameter-free cell queries without a threshold
				}
				q := trussdiv.Query{
					K: k, R: 12, IncludeContexts: true,
					Engine: p.engine, Measure: p.measure, Workers: workers,
				}
				want, _, err := single.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s: single node: %v", label, err)
				}
				got, stats, err := coord.TopR(ctx, q)
				if err != nil {
					t.Fatalf("%s: cluster: %v", label, err)
				}
				if len(stats.Answered) != count {
					t.Fatalf("%s: %d/%d shards answered", label, len(stats.Answered), count)
				}
				sameAnswer(t, label, got, want)
			}
		}
	}
}

// TestClusterApplyEpochBarrier: an update batch streamed through the
// coordinator advances every worker to the same epoch, queries carry the
// new tag, and post-update answers still match a single node that
// applied the same batch.
func TestClusterApplyEpochBarrier(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	coord, shards := startCluster(t, g, 2)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(41))
	u := randomUpdates(g, rng, 6, 3)
	epoch, err := coord.Apply(ctx, u.Insert, u.Delete)
	if err != nil {
		t.Fatal(err)
	}
	if coord.Epoch() != epoch {
		t.Fatalf("cluster epoch %d, apply reported %d", coord.Epoch(), epoch)
	}
	for i, sh := range shards {
		if got := uint64(sh.worker.DB().Epoch()); got != epoch {
			t.Fatalf("shard %d at epoch %d after barrier, want %d", i, got, epoch)
		}
	}
	if _, err := single.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	if uint64(single.Epoch()) != epoch {
		t.Fatalf("single-node epoch %d, cluster %d", single.Epoch(), epoch)
	}

	q := trussdiv.Query{K: 4, R: 10, IncludeContexts: true}
	want, _, err := single.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := coord.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Epoch != epoch {
		t.Fatalf("query ran at epoch %d, want %d", stats.Epoch, epoch)
	}
	sameAnswer(t, "post-apply", got, want)

	// A batch every worker rejects leaves the cluster untouched: same
	// epoch, no partial-apply error.
	present := u.Insert[0]
	if _, err := coord.Apply(ctx, []trussdiv.Edge{present}, nil); err == nil {
		t.Fatal("re-inserting a present edge succeeded")
	} else if errors.Is(err, ErrPartialApply) {
		t.Fatalf("uniform rejection reported as partial apply: %v", err)
	}
	if coord.Epoch() != epoch {
		t.Fatalf("rejected batch moved the cluster epoch to %d", coord.Epoch())
	}
}

// TestKilledShardDegradedModeAndRecovery: with every replica of one
// shard down, TopR returns the merged answer of the survivors plus a
// typed *PartialResultError naming the dead shard; once the shard is
// back, answers are complete and exact again.
func TestKilledShardDegradedModeAndRecovery(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	coord, shards := startCluster(t, g, 2, WithShardTimeout(2*time.Second), WithBackoff(time.Millisecond))
	ctx := context.Background()
	q := trussdiv.Query{K: 4, R: 8, IncludeContexts: true}

	shards[1].down.Store(true)
	res, stats, err := coord.TopR(ctx, q)
	if !errors.Is(err, ErrPartialResult) {
		t.Fatalf("err = %v, want ErrPartialResult", err)
	}
	var perr *PartialResultError
	if !errors.As(err, &perr) {
		t.Fatalf("err %T is not *PartialResultError", err)
	}
	if _, failed := perr.Failed[1]; !failed || len(perr.Failed) != 1 {
		t.Fatalf("Failed = %v, want exactly shard 1", perr.Failed)
	}
	if !reflect.DeepEqual(stats.Answered, []int{0}) {
		t.Fatalf("Answered = %v, want [0]", stats.Answered)
	}
	// The degraded answer is exactly the surviving shard's range answer.
	mid := int32(g.N() / 2)
	want, _, err := single.TopRRange(ctx, q, 0, mid)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "degraded", res, want)

	shards[1].down.Store(false)
	res, stats, err = coord.TopR(ctx, q)
	if err != nil {
		t.Fatalf("after recovery: %v", err)
	}
	if len(stats.Answered) != 2 {
		t.Fatalf("after recovery only %v answered", stats.Answered)
	}
	full, _, err := single.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "recovered", res, full)
}

// TestHedgedReadFiresByteExact: a slow primary makes the hedge timer
// fire the same request at the replica; the answer arrives from the fast
// copy and is still byte-exact.
func TestHedgedReadFiresByteExact(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	mid := int32(g.N() / 2)
	slow := startShard(t, g, 0, mid, WithDelay(2*time.Second))
	fast := startShard(t, g, 0, mid)
	other := startShard(t, g, mid, int32(g.N()))
	groups := [][]string{{slow.addr(), fast.addr()}, {other.addr()}}
	coord, err := NewCoordinator(context.Background(), groups,
		fastOpts(WithHedgeDelay(30*time.Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	q := trussdiv.Query{K: 4, R: 10, IncludeContexts: true}
	start := time.Now()
	res, _, err := coord.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 1500*time.Millisecond {
		t.Fatalf("query took %v: the hedge never fired (slow primary delay is 2s)", took)
	}
	want, _, err := single.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "hedged", res, want)
	if hedges := coord.FanoutStats()[0].Hedges; hedges == 0 {
		t.Fatal("hedge counter never moved")
	}
}

// TestStaleEpochRaisesAndRetries: workers that advanced past the
// coordinator (their Apply landed out of band) fail the first fan-out
// typed; the coordinator adopts the higher epoch and the retried fan-out
// succeeds at it.
func TestStaleEpochRaisesAndRetries(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	coord, shards := startCluster(t, g, 2)
	ctx := context.Background()

	rng := rand.New(rand.NewSource(43))
	u := randomUpdates(g, rng, 5, 2)
	for _, sh := range shards {
		if _, err := sh.worker.DB().Apply(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := single.Apply(ctx, u); err != nil {
		t.Fatal(err)
	}
	before := coord.Epoch()
	q := trussdiv.Query{K: 4, R: 10, IncludeContexts: true}
	res, stats, err := coord.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Retried {
		t.Fatal("fan-out was not retried despite stale coordinator epoch")
	}
	if stats.Epoch <= before || stats.Epoch != uint64(single.Epoch()) {
		t.Fatalf("retried query ran at epoch %d (coordinator had %d, workers %d)",
			stats.Epoch, before, single.Epoch())
	}
	want, _, err := single.TopR(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameAnswer(t, "after epoch retry", res, want)
}

// TestWorkerEpochCatchup: a query tagged one epoch ahead parks on the
// worker until the replicated Apply lands, then answers from exactly the
// requested epoch; a tag past the catch-up window fails typed.
func TestWorkerEpochCatchup(t *testing.T) {
	g := testGraph(t)
	sh := startShard(t, g, 0, int32(g.N()))
	client := NewClient(sh.addr())
	ctx := context.Background()
	db := sh.worker.DB()

	target := uint64(db.Epoch()) + 1
	type reply struct {
		resp *shardTopRResponse
		err  error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := client.TopR(ctx, shardTopRRequest{K: 4, R: 5, Epoch: target})
		done <- reply{resp, err}
	}()
	time.Sleep(100 * time.Millisecond) // let the request park on WaitEpoch
	rng := rand.New(rand.NewSource(47))
	if _, err := db.Apply(ctx, randomUpdates(g, rng, 3, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.resp.Epoch != target {
			t.Fatalf("answered from epoch %d, want %d", r.resp.Epoch, target)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked query never answered after the apply landed")
	}

	// Beyond the catch-up window: typed stale failure with both epochs.
	impatient := startShard(t, g, 0, int32(g.N()), WithCatchup(50*time.Millisecond))
	ic := NewClient(impatient.addr())
	have := uint64(impatient.worker.DB().Epoch())
	_, err := ic.TopR(ctx, shardTopRRequest{K: 4, R: 5, Epoch: have + 7})
	if !errors.Is(err, ErrStaleEpoch) {
		t.Fatalf("err = %v, want ErrStaleEpoch", err)
	}
	var se *StaleEpochError
	if !errors.As(err, &se) || se.Want != have+7 || se.Have != have {
		t.Fatalf("stale error = %+v, want Want=%d Have=%d", se, have+7, have)
	}
}

// TestCoordinatorServerHTTP pins the coordinator's HTTP surface: the
// single-node /topr shape, /cluster status, point-query routing, apply,
// and the 206 degraded answer naming the failed shards.
func TestCoordinatorServerHTTP(t *testing.T) {
	g := testGraph(t)
	single := openDB(t, g)
	coord, shards := startCluster(t, g, 2, WithShardTimeout(2*time.Second), WithBackoff(time.Millisecond))
	srv := httptest.NewServer(NewCoordinatorServer(coord, 0).Handler())
	t.Cleanup(srv.Close)
	ctx := context.Background()

	getJSON := func(path string, out any) int {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if err := jsonDecode(resp, out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode
	}

	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
		Shards int    `json:"shards"`
	}
	if code := getJSON("/healthz", &health); code != 200 || health.Role != "coordinator" || health.Shards != 2 {
		t.Fatalf("/healthz = %d %+v", code, health)
	}

	var status ClusterStatus
	if code := getJSON("/cluster", &status); code != 200 {
		t.Fatalf("/cluster = %d", code)
	}
	if len(status.Shards) != 2 || status.Vertices != g.N() {
		t.Fatalf("/cluster = %+v", status)
	}
	for _, sh := range status.Shards {
		for _, rep := range sh.Replicas {
			if !rep.Healthy {
				t.Fatalf("replica %s unhealthy in fresh cluster: %+v", rep.Addr, rep)
			}
		}
	}

	var topr struct {
		Engine   string `json:"engine"`
		Epoch    uint64 `json:"epoch"`
		Answered []int  `json:"answered_shards"`
		Failed   []int  `json:"failed_shards"`
		Results  []struct {
			Vertex int32 `json:"vertex"`
			Score  int   `json:"score"`
		} `json:"results"`
	}
	if code := getJSON("/topr?k=4&r=6", &topr); code != 200 {
		t.Fatalf("/topr = %d", code)
	}
	want, _, err := single.TopR(ctx, trussdiv.Query{K: 4, R: 6})
	if err != nil {
		t.Fatal(err)
	}
	if len(topr.Results) != len(want.TopR) {
		t.Fatalf("/topr returned %d rows, want %d", len(topr.Results), len(want.TopR))
	}
	for i, row := range topr.Results {
		if row.Vertex != want.TopR[i].V || row.Score != want.TopR[i].Score {
			t.Fatalf("/topr row %d = %+v, want %+v", i, row, want.TopR[i])
		}
	}

	// Point queries route to the owning shard and agree with a single node.
	v := want.TopR[0].V
	wantScore, err := single.ScoreMeasure(ctx, v, 4, "")
	if err != nil {
		t.Fatal(err)
	}
	var score struct {
		Score int `json:"score"`
	}
	if code := getJSON(fmt.Sprintf("/score?v=%d&k=4", v), &score); code != 200 || score.Score != wantScore {
		t.Fatalf("/score = %d %+v, want score %d", code, score, wantScore)
	}

	// Degraded mode over HTTP: 206 with the failed shards named.
	shards[1].down.Store(true)
	if code := getJSON("/topr?k=4&r=6", &topr); code != http.StatusPartialContent {
		t.Fatalf("/topr with a dead shard = %d, want 206", code)
	}
	if !reflect.DeepEqual(topr.Failed, []int{1}) {
		t.Fatalf("failed_shards = %v, want [1]", topr.Failed)
	}
	shards[1].down.Store(false)

	// Caller errors stay 400s.
	var errBody struct {
		Error string `json:"error"`
	}
	if code := getJSON("/topr?k=4&r=6&engine=nope", &errBody); code != 400 || errBody.Error == "" {
		t.Fatalf("unknown engine = %d %+v", code, errBody)
	}
	if code := getJSON("/topr?k=4&r=6&candidates=1,2", &errBody); code != 400 {
		t.Fatalf("candidates param = %d, want 400", code)
	}
	for _, url := range []string{
		"/score?v=4294967296&k=3", // vertex beyond int32 (would wrap to 0)
		"/score?v=0&k=4294967299", // k beyond int32 (would wrap to 3)
		"/topr?k=4294967299&r=3",  // k beyond int32 (would wrap to 3)
	} {
		if code := getJSON(url, &errBody); code != 400 {
			t.Fatalf("%s = %d, want 400", url, code)
		}
	}

	// /metrics carries both endpoint histograms and fan-out stats.
	var m struct {
		Endpoints map[string]any `json:"endpoints"`
		Shards    []ShardStatus  `json:"shards"`
	}
	if code := getJSON("/metrics", &m); code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	if len(m.Shards) != 2 || m.Endpoints["endpoints"] == nil || m.Endpoints["requests"] == nil {
		t.Fatalf("/metrics = %+v", m)
	}
	if m.Shards[0].Requests == 0 {
		t.Fatal("fan-out counters never moved")
	}
}

func jsonDecode(resp *http.Response, out any) error {
	return json.NewDecoder(resp.Body).Decode(out)
}

func TestParseShards(t *testing.T) {
	got, err := ParseShards("a:7001,b:7002|c:7003")
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"a:7001"}, {"b:7002", "c:7003"}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseShards = %v, want %v", got, want)
	}
	for _, bad := range []string{"", " ", "a:1,,b:2", "a:1||b:2"} {
		if _, err := ParseShards(bad); err == nil {
			t.Fatalf("ParseShards(%q) accepted", bad)
		}
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := ParseRange("10:250")
	if err != nil || lo != 10 || hi != 250 {
		t.Fatalf("ParseRange = %d,%d,%v", lo, hi, err)
	}
	for _, bad := range []string{"", "10", "a:b", ":5"} {
		if _, _, err := ParseRange(bad); err == nil {
			t.Fatalf("ParseRange(%q) accepted", bad)
		}
	}
}

// TestCoordinatorRejectsBrokenTopologies: overlapping, gapped, or
// range-disagreeing shard sets fail at construction, not at query time.
func TestCoordinatorRejectsBrokenTopologies(t *testing.T) {
	g := testGraph(t)
	n := int32(g.N())
	mid := n / 2
	a := startShard(t, g, 0, mid)
	b := startShard(t, g, mid, n)
	overlap := startShard(t, g, mid-10, n)
	short := startShard(t, g, mid, n-5)
	ctx := context.Background()

	cases := map[string][][]string{
		"gap":              {{a.addr()}},
		"overlap":          {{a.addr()}, {overlap.addr()}},
		"short":            {{a.addr()}, {short.addr()}},
		"replica-disagree": {{a.addr(), b.addr()}},
	}
	for name, groups := range cases {
		if _, err := NewCoordinator(ctx, groups, fastOpts()...); err == nil {
			t.Fatalf("%s topology accepted", name)
		}
	}
	if _, err := NewCoordinator(ctx, [][]string{{a.addr()}, {b.addr()}}, fastOpts()...); err != nil {
		t.Fatalf("valid topology rejected: %v", err)
	}
}

// TestReplicaOutcomeRecording pins the per-replica fan-out bookkeeping:
// a dead primary records a failure for EVERY attempt that hit it (not
// just silence), the replica that actually answered records successes
// tagged as hedged wins (it was not the attempt's first hop), and an
// untroubled shard's replica accumulates plain successes.
func TestReplicaOutcomeRecording(t *testing.T) {
	g := testGraph(t)
	mid := int32(g.N() / 2)
	primary := startShard(t, g, 0, mid)
	secondary := startShard(t, g, 0, mid)
	other := startShard(t, g, mid, int32(g.N()))
	groups := [][]string{{primary.addr(), secondary.addr()}, {other.addr()}}
	coord, err := NewCoordinator(context.Background(), groups, fastOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	primary.down.Store(true)

	ctx := context.Background()
	const rounds = 3
	for i := 0; i < rounds; i++ {
		if _, _, err := coord.TopR(ctx, trussdiv.Query{K: 4, R: 6}); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
	}

	fs := coord.FanoutStats()
	p, s := fs[0].Replicas[0], fs[0].Replicas[1]
	if p.Failures < rounds {
		t.Fatalf("dead primary recorded %d failures, want >= %d (%+v)", p.Failures, rounds, p)
	}
	if p.Healthy || p.Error == "" {
		t.Fatalf("dead primary reads healthy: %+v", p)
	}
	if s.Successes < rounds {
		t.Fatalf("answering secondary recorded %d successes, want >= %d (%+v)", s.Successes, rounds, s)
	}
	if s.HedgedWins < rounds {
		t.Fatalf("secondary's wins were not tagged hedged: %+v", s)
	}
	if s.LatencyUS <= 0 || s.LastUS <= 0 {
		t.Fatalf("secondary's successes did not feed its latency EWMA: %+v", s)
	}
	o := fs[1].Replicas[0]
	if o.Successes < rounds || o.Failures != 0 || o.HedgedWins != 0 {
		t.Fatalf("untroubled shard's replica outcomes: %+v", o)
	}
}

// TestFailedAttemptUpdatesReplicaLatency: a replica that burns the whole
// shard timeout before failing must show that latency in its EWMA — a
// failure is an observation, not a gap in the record.
func TestFailedAttemptUpdatesReplicaLatency(t *testing.T) {
	g := testGraph(t)
	stuck := startShard(t, g, 0, int32(g.N()), WithDelay(2*time.Second))
	coord, err := NewCoordinator(context.Background(), [][]string{{stuck.addr()}},
		WithShardTimeout(150*time.Millisecond), WithRetries(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := coord.TopR(context.Background(), trussdiv.Query{K: 4, R: 6}); err == nil {
		t.Fatal("query against a stuck single-replica shard succeeded")
	}
	// Outcome recording happens in the request goroutine, which may land a
	// beat after the coordinator gives up on the attempt — poll briefly.
	var rep ReplicaStatus
	deadline := time.Now().Add(2 * time.Second)
	for {
		rep = coord.FanoutStats()[0].Replicas[0]
		if rep.Failures > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep.Failures == 0 {
		t.Fatalf("timed-out attempt recorded no failure: %+v", rep)
	}
	if rep.LatencyUS < 100_000 {
		t.Fatalf("timed-out attempt's latency (%dus) missing from the EWMA, want >= the ~150ms timeout", rep.LatencyUS)
	}
}
