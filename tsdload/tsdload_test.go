package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"trussdiv/internal/core"
)

// smallConfig runs a workload for a few seconds on a small seeded graph.
func smallConfig(t *testing.T, wl string, trace bool) config {
	dir := t.TempDir()
	return config{
		workload: wl, seed: 7, seconds: 2, trace: trace, n: 1500, clients: 2,
		period: 500 * time.Millisecond, warmup: 300 * time.Millisecond,
		workdir: dir, spans: filepath.Join(dir, "spans.jsonl"),
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload the driver serves
// (those BENCHMARK.json gates and cluster-2shard) untraced and traced and
// checks that every metric BENCHMARK.json names is reported, that nothing
// failed, and that the traced run wrote its spans.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	for _, wl := range bench.Workloads {
		if !slices.Contains(workloads, wl.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, which the driver does not serve", wl.Name)
		}
	}
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			rep, err := run(smallConfig(t, wl, trace))
			if err != nil {
				t.Fatalf("%s trace=%t: %v", wl, trace, err)
			}
			res := rep.result()
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d: %v",
					wl, trace, res.Correct, res.Failed, res.Attempted, rep.errs)
			}
			want := bench.EndToEnd
			if trace {
				want = bench.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", wl, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s missing or unit %q != %q", wl, trace, m.Name, got.Unit, m.Unit)
				}
			}
			if trace {
				if v := res.Metrics["error_rate"].Value; v != 0 {
					t.Errorf("%s: error_rate = %v", wl, v)
				}
				if _, err := os.Stat(rep.env["spans_file"].(string)); err != nil {
					t.Errorf("%s: spans not written: %v", wl, err)
				}
			}
		}
	}
}

// TestOracleCountsWrongAnswers feeds the oracle one correct and one
// deliberately wrong answer of each kind.
func TestOracleCountsWrongAnswers(t *testing.T) {
	g := genGraph(1500, 3)
	o := newOracle(g, 1)
	q := query{K: 4, R: 5, Measure: "truss"}
	want, err := o.expectTopR(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	o.checkTopR(q, wireTopR{Epoch: 1, Results: want})
	if o.bad != 0 {
		t.Fatalf("a correct top-r answer was counted as a mismatch: %v", o.errs)
	}
	wrong := append([]wireResult(nil), want...)
	wrong[0].Score++
	o.checkTopR(q, wireTopR{Epoch: 1, Results: wrong})
	if o.bad != 1 {
		t.Fatalf("a wrong top-r score was not counted: bad = %d", o.bad)
	}

	v := int32(0) // the top preferential-attachment hub
	req := request{kind: kindScore, v: v, k: 4, measure: "truss"}
	score := core.NewVertexScorer(g, core.MeasureTruss).Score(v, 4)
	o.checkPoint(req, wirePoint{Score: score}, 1)
	o.checkPoint(req, wirePoint{Score: score + 1}, 1)
	if o.bad != 2 {
		t.Fatalf("a wrong point score was not counted exactly once: bad = %d (%v)", o.bad, o.errs)
	}
}

// TestOracleReplaysEpochs checks that an answer is recomputed on the graph
// of its own epoch, rebuilt from the recorded batches.
func TestOracleReplaysEpochs(t *testing.T) {
	g := genGraph(1500, 4)
	es := newEdgeState(g, 4)
	o := newOracle(g, 1)
	cur := g
	for e := uint64(2); e <= 4; e++ {
		ins, del := es.nextBatch()
		es.commit(ins, del)
		o.batches = append(o.batches, appliedBatch{epoch: e, ins: ins, del: del})
		var err error
		if cur, err = core.ApplyEdits(cur, ins, del); err != nil {
			t.Fatal(err)
		}
	}
	got, err := o.graphAt(4)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != cur.Fingerprint() || got.M() != len(es.list) {
		t.Fatalf("graph at epoch 4 differs from the batches applied in order")
	}
	if _, err := o.graphAt(9); err == nil {
		t.Fatal("an epoch no batch reaches was rebuilt")
	}
}
