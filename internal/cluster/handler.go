package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"trussdiv"
	"trussdiv/internal/metrics"
)

// CoordinatorServer is the coordinator's HTTP surface. It mirrors the
// single-node server's query API (same /topr, /score, /contexts, /edges
// shapes, so tsdsearch and existing clients work unchanged against a
// cluster) and adds GET /cluster for per-shard health and fan-out stats.
// A degraded scatter-gather (some shard down) answers 206 Partial
// Content with the shards that failed named in the body.
type CoordinatorServer struct {
	coord   *Coordinator
	timeout time.Duration
	started time.Time
}

// NewCoordinatorServer wraps coord. timeout bounds every client request
// end to end (0 = no deadline beyond the client's own).
func NewCoordinatorServer(coord *Coordinator, timeout time.Duration) *CoordinatorServer {
	return &CoordinatorServer{coord: coord, timeout: timeout, started: time.Now()}
}

// Handler returns the coordinator's routing.
func (s *CoordinatorServer) Handler() http.Handler {
	mux := http.NewServeMux()
	instr := func(pattern, route string, h http.HandlerFunc) {
		mux.HandleFunc(pattern, s.coord.metrics.Instrument(route, h))
	}
	instr("GET /healthz", "/healthz", s.handleHealth)
	instr("GET /cluster", "/cluster", s.handleCluster)
	instr("GET /topr", "/topr", s.handleTopR)
	instr("POST /edges", "/edges", s.handleEdges)
	instr("GET /score", "/score", s.handleScore)
	instr("GET /contexts", "/contexts", s.handleContexts)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// requestContext derives the per-request deadline context.
func (s *CoordinatorServer) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

type coordErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func coordJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(body)
}

func coordBadRequest(w http.ResponseWriter, format string, args ...any) {
	coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *CoordinatorServer) handleHealth(w http.ResponseWriter, _ *http.Request) {
	coordJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"role":   "coordinator",
		"shards": s.coord.Shards(),
		"epoch":  s.coord.Epoch(),
	})
}

func (s *CoordinatorServer) handleCluster(w http.ResponseWriter, r *http.Request) {
	coordJSON(w, http.StatusOK, s.coord.Status(r.Context()))
}

// handleMetrics reports the coordinator's own endpoint histograms plus
// the per-shard fan-out counters.
func (s *CoordinatorServer) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	coordJSON(w, http.StatusOK, map[string]any{
		"endpoints": s.coord.metrics.Snapshot(),
		"shards":    s.coord.FanoutStats(),
	})
}

// clusterTopRResponse is the single-node topRResponse shape plus the
// cluster fields: which shards answered and, on 206, which failed.
type clusterTopRResponse struct {
	Engine       string           `json:"engine"`
	Routed       bool             `json:"routed"`
	Measure      trussdiv.Measure `json:"measure"`
	Epoch        uint64           `json:"epoch"`
	K            int              `json:"k"`
	R            int              `json:"r"`
	TookUS       int64            `json:"took_us"`
	Shards       int              `json:"shards"`
	Answered     []int            `json:"answered_shards"`
	FailedShards []int            `json:"failed_shards,omitempty"`
	Retried      bool             `json:"epoch_retry,omitempty"`
	Error        string           `json:"error,omitempty"`
	Results      []clusterResult  `json:"results"`
}

type clusterResult struct {
	Vertex   int32     `json:"vertex"`
	Score    int       `json:"score"`
	Contexts [][]int32 `json:"contexts,omitempty"`
}

func (s *CoordinatorServer) handleTopR(w http.ResponseWriter, r *http.Request) {
	qp := r.URL.Query()
	// k is optional, matching the single-node server: absent means a
	// parameter-free query, which every shard routes to its pfree engine.
	var k int64
	if raw := qp.Get("k"); raw != "" {
		var err error
		if k, err = strconv.ParseInt(raw, 10, 32); err != nil {
			coordBadRequest(w, "parameter \"k\": %v", err)
			return
		}
	}
	rr, err := strconv.Atoi(qp.Get("r"))
	if err != nil {
		coordBadRequest(w, "parameter \"r\": %v", err)
		return
	}
	workers := 0
	if raw := qp.Get("workers"); raw != "" {
		if workers, err = strconv.Atoi(raw); err != nil {
			coordBadRequest(w, "parameter \"workers\": %v", err)
			return
		}
	}
	measure, err := trussdiv.ParseMeasure(qp.Get("measure"))
	if err != nil {
		coordBadRequest(w, "%v", err)
		return
	}
	if qp.Get("candidates") != "" {
		coordBadRequest(w, "the cluster tier does not accept candidate subsets: the shard ranges are the candidate partition")
		return
	}
	q := trussdiv.Query{
		K:               int32(k),
		R:               rr,
		IncludeContexts: qp.Get("contexts") == "true",
		Engine:          qp.Get("engine"),
		Measure:         measure,
		Workers:         workers,
	}

	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	res, stats, qerr := s.coord.TopR(ctx, q)
	var perr *PartialResultError
	if qerr != nil && !errors.As(qerr, &perr) {
		var re *RemoteError
		if errors.As(qerr, &re) && re.Status >= 400 && re.Status < 500 {
			coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: qerr.Error(), Code: re.Code})
			return
		}
		coordJSON(w, http.StatusBadGateway, coordErrorBody{Error: qerr.Error()})
		return
	}
	body := clusterTopRResponse{
		Engine:  consensusEngine(stats),
		Routed:  q.Engine == "",
		Measure: measure.Normalize(),
		K:       int(k),
		R:       rr,
		TookUS:  time.Since(start).Microseconds(),
		Shards:  s.coord.Shards(),
	}
	if stats != nil {
		body.Epoch = stats.Epoch
		body.Answered = stats.Answered
		body.Retried = stats.Retried
	}
	if res != nil {
		for _, e := range res.TopR {
			out := clusterResult{Vertex: e.V, Score: e.Score}
			if q.IncludeContexts {
				out.Contexts = res.Contexts[e.V]
			}
			body.Results = append(body.Results, out)
		}
	}
	status := http.StatusOK
	if perr != nil {
		status = http.StatusPartialContent
		body.Error = perr.Error()
		for id := range perr.Failed {
			body.FailedShards = append(body.FailedShards, id)
		}
		sort.Ints(body.FailedShards)
	}
	coordJSON(w, status, body)
}

// consensusEngine names the engine the shards answered with: one name
// when they agree (the common case — the same cost model runs on each
// shard), a sorted comma join otherwise.
func consensusEngine(stats *QueryStats) string {
	if stats == nil || len(stats.Engines) == 0 {
		return ""
	}
	set := make(map[string]bool)
	for _, name := range stats.Engines {
		if name != "" {
			set[name] = true
		}
	}
	names := make([]string, 0, len(set))
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	return strings.Join(names, ",")
}

func (s *CoordinatorServer) handleEdges(w http.ResponseWriter, r *http.Request) {
	var req shardApplyRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20)).Decode(&req); err != nil {
		coordBadRequest(w, "edges body: %v", err)
		return
	}
	if len(req.Insert)+len(req.Delete) == 0 {
		coordBadRequest(w, "edges body: no edits")
		return
	}
	ins := make([]trussdiv.Edge, len(req.Insert))
	for i, e := range req.Insert {
		ins[i] = trussdiv.Edge{U: e.U, V: e.V}
	}
	del := make([]trussdiv.Edge, len(req.Delete))
	for i, e := range req.Delete {
		del[i] = trussdiv.Edge{U: e.U, V: e.V}
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	start := time.Now()
	epoch, err := s.coord.Apply(ctx, ins, del)
	if err != nil {
		var pae *PartialApplyError
		if errors.As(err, &pae) {
			// The batch landed on the healthy replicas; report the torn ones
			// without pretending the whole write failed.
			coordJSON(w, http.StatusPartialContent, map[string]any{
				"epoch":    epoch,
				"inserted": len(req.Insert),
				"deleted":  len(req.Delete),
				"took_us":  time.Since(start).Microseconds(),
				"error":    pae.Error(),
				"code":     "partial_apply",
			})
			return
		}
		var re *RemoteError
		if errors.As(err, &re) && re.Code == "bad_update" {
			coordJSON(w, http.StatusConflict, coordErrorBody{Error: err.Error(), Code: "bad_update"})
			return
		}
		coordJSON(w, http.StatusBadGateway, coordErrorBody{Error: err.Error()})
		return
	}
	coordJSON(w, http.StatusOK, map[string]any{
		"epoch":    epoch,
		"inserted": len(req.Insert),
		"deleted":  len(req.Delete),
		"took_us":  time.Since(start).Microseconds(),
	})
}

// pointRequest parses the shared v/k/measure parameters of /score and
// /contexts. k is optional: absent (or 0) asks the owning shard for the
// parameter-free score, matching the single-node server.
func pointRequest(r *http.Request) (v, k int32, m trussdiv.Measure, err error) {
	vi, err := strconv.ParseInt(r.URL.Query().Get("v"), 10, 32)
	if err != nil {
		return 0, 0, "", fmt.Errorf("parameter \"v\": %v", err)
	}
	var ki int64
	if raw := r.URL.Query().Get("k"); raw != "" {
		if ki, err = strconv.ParseInt(raw, 10, 32); err != nil {
			return 0, 0, "", fmt.Errorf("parameter \"k\": %v", err)
		}
	}
	m, err = trussdiv.ParseMeasure(r.URL.Query().Get("measure"))
	if err != nil {
		return 0, 0, "", err
	}
	return int32(vi), int32(ki), m, nil
}

// routeError maps a coordinator point-query failure onto the client
// response: remote 4xx pass through as 400, everything else is 502.
func routeError(w http.ResponseWriter, err error) {
	var re *RemoteError
	if errors.As(err, &re) && re.Status >= 400 && re.Status < 500 {
		coordJSON(w, http.StatusBadRequest, coordErrorBody{Error: err.Error(), Code: re.Code})
		return
	}
	coordJSON(w, http.StatusBadGateway, coordErrorBody{Error: err.Error()})
}

func (s *CoordinatorServer) handleScore(w http.ResponseWriter, r *http.Request) {
	v, k, m, err := pointRequest(r)
	if err != nil {
		coordBadRequest(w, "%v", err)
		return
	}
	score, epoch, err := s.coord.Score(r.Context(), v, k, m)
	if err != nil {
		routeError(w, err)
		return
	}
	coordJSON(w, http.StatusOK, map[string]any{
		"vertex": v, "k": k, "measure": m.Normalize(), "score": score, "epoch": epoch,
	})
}

func (s *CoordinatorServer) handleContexts(w http.ResponseWriter, r *http.Request) {
	v, k, m, err := pointRequest(r)
	if err != nil {
		coordBadRequest(w, "%v", err)
		return
	}
	contexts, epoch, err := s.coord.Contexts(r.Context(), v, k, m)
	if err != nil {
		routeError(w, err)
		return
	}
	coordJSON(w, http.StatusOK, map[string]any{
		"vertex": v, "k": k, "measure": m.Normalize(), "score": len(contexts),
		"epoch": epoch, "contexts": contexts,
	})
}

// Metrics exposes the coordinator's endpoint registry (tests).
func (s *CoordinatorServer) Metrics() *metrics.Registry { return s.coord.metrics }
