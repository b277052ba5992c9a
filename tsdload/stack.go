package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"trussdiv"
	"trussdiv/internal/cluster"
	"trussdiv/internal/graph"
	"trussdiv/internal/server"
)

// allEngines is every preparable engine; the warm workloads' untimed
// pre-step prepares all of them and persists the store.
var allEngines = []string{"bound", "tsd", "gct", "hybrid", "comp", "kcore", "pfree"}

// buildStore prepares every engine on g and persists the index store in
// dir. The store is what a warm node (and each cluster shard) opens.
func buildStore(g *graph.Graph, dir string) error {
	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir))
	if err != nil {
		return err
	}
	if err := db.Prepare(context.Background(), allEngines...); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}
	if _, err := db.SaveIndexes(); err != nil {
		return fmt.Errorf("save indexes: %w", err)
	}
	return nil
}

// openPrepared opens a DB on the store in dir and readies its default
// engines, as a warm node or shard does.
func openPrepared(g *graph.Graph, dir string) (*trussdiv.DB, error) {
	db, err := trussdiv.Open(g, trussdiv.WithIndexDir(dir), trussdiv.WithStoreMode(trussdiv.StoreMmap))
	if err != nil {
		return nil, err
	}
	if err := db.Prepare(context.Background()); err != nil {
		return nil, err
	}
	return db, nil
}

// listener serves one handler on a loopback port.
type listener struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func listen(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{srv: &http.Server{Handler: h}, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		if err := l.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			panic(err)
		}
	}()
	return l, nil
}

// close stops the listener and waits for its serve loop to return.
func (l *listener) close() {
	_ = l.srv.Close() // connections are torn down; Serve's error is checked above
	<-l.done
}

// stack is one serving tier under test: a single node, or a coordinator
// in front of two shard workers.
type stack struct {
	front *listener
	node  *server.Server // single node
	coord *cluster.Coordinator
	shard []*cluster.Worker
	lns   []*listener // shard listeners
}

func (s *stack) close() {
	if s.front != nil {
		s.front.close()
	}
	for _, l := range s.lns {
		l.close()
	}
}

// db returns the DB whose state the oracle and replays inspect: the
// node's, or the first shard's (every shard holds the whole graph).
func (s *stack) db() *trussdiv.DB {
	if s.node != nil {
		return s.node.DB()
	}
	return s.shard[0].DB()
}

// startNode brings up one node; storeDir == "" is a cold start.
func startNode(g *graph.Graph, storeDir string, tr *tracer) (*stack, error) {
	var opts []server.Option
	if storeDir != "" {
		opts = append(opts, server.WithIndexDir(storeDir), server.WithStoreMode(trussdiv.StoreMmap))
	}
	node := server.New(g, opts...)
	st := &stack{node: node}
	var h http.Handler = node.Handler()
	if tr != nil {
		h = tr.middleware("server.handler", "client", h)
	}
	front, err := listen(h)
	if err != nil {
		return nil, err
	}
	st.front = front
	return st, nil
}

// startCluster brings up two shard workers over [0,n/2) and [n/2,n), each
// opening the warm store, and a coordinator in front of them.
func startCluster(g *graph.Graph, storeDir string, tr *tracer) (*stack, error) {
	st := &stack{}
	n := int32(g.N())
	var addrs [][]string
	for _, rng := range [][2]int32{{0, n / 2}, {n / 2, n}} {
		db, err := openPrepared(g, storeDir)
		if err != nil {
			st.close()
			return nil, err
		}
		w, err := cluster.NewWorker(db, rng[0], rng[1])
		if err != nil {
			st.close()
			return nil, err
		}
		var h http.Handler = w.Handler()
		if tr != nil {
			h = tr.shardMiddleware(h)
		}
		l, err := listen(h)
		if err != nil {
			st.close()
			return nil, err
		}
		st.shard = append(st.shard, w)
		st.lns = append(st.lns, l)
		addrs = append(addrs, []string{l.addr})
	}
	coord, err := cluster.NewCoordinator(context.Background(), addrs)
	if err != nil {
		st.close()
		return nil, err
	}
	st.coord = coord
	var h http.Handler = cluster.NewCoordinatorServer(coord, 0).Handler()
	if tr != nil {
		h = tr.middleware("server.handler", "client", h)
	}
	front, err := listen(h)
	if err != nil {
		st.close()
		return nil, err
	}
	st.front = front
	return st, nil
}

// timedSetup starts the workload's stack reps times on fresh copies of g,
// tearing down all but the last, and returns it with the median set-up
// time. Each copy starts without a memoized fingerprint, as a new process
// would.
func timedSetup(reps int, g *graph.Graph, start func(*graph.Graph) (*stack, error)) (*stack, float64, error) {
	var secs []float64
	var st *stack
	for i := 0; i < reps; i++ {
		if st != nil {
			st.close()
		}
		c := cloneGraph(g)
		runtime.GC() // start each set-up from the same heap state
		t0 := time.Now()
		var err error
		st, err = start(c)
		if err != nil {
			return nil, 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return st, median(secs), nil
}
