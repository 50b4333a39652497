package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sommelier"
	"sommelier/internal/cluster"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

const (
	// uploadOp names a traced set-up's publish of one model through the
	// cluster: the operation the hub.upload_* figures are taken over.
	uploadOp = "setup.publish"

	scatterShards   = 3
	scatterReplicas = 2
	batchSize       = 16
)

// scatterShape is the 24 catalog models alone: replication doubles
// indexing work and every replica indexes each upload on arrival, so
// the sharded catalog stays small to bound set-up time.
var scatterShape = shape{series: serveSeries}

// scatterSystem is the sharded catalog: scatterShards × scatterReplicas
// hub servers, each with its own engine and repository, reached
// through HTTPReplica the way `sommhub -coordinator` reaches them.
type scatterSystem struct {
	nodes     [][]*node
	clients   []*hub.Client
	transport *http.Transport
	co        *cluster.Coordinator
	// ref is a coordinator over the same engines called in process, no
	// HTTP in between: the reference answers come from it.
	ref *cluster.Coordinator
}

func (s *scatterSystem) close() {
	for _, reps := range s.nodes {
		for _, n := range reps {
			n.close()
		}
	}
	s.transport.CloseIdleConnections()
}

// isRoot reports whether m is a series' first rung: the reference
// models broadcast to every shard.
func isRoot(m *graph.Model) bool { return m.Metadata["rung"] == "0" }

func buildScatter(e *env, models []*graph.Model, o *obs.Observer) (*scatterSystem, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	sys := &scatterSystem{transport: newTransport()}
	reps := make([][]cluster.Replica, scatterShards)
	refShards := make([][]cluster.QueryBackend, scatterShards)
	var wires []*wireSeam
	for s := 0; s < scatterShards; s++ {
		for r := 0; r < scatterReplicas; r++ {
			n, err := openNode(e.dir(fmt.Sprintf("shard%d-replica%d", s, r)), e.seed, e.tr)
			if err != nil {
				return sys, st, err
			}
			if len(sys.nodes) <= s {
				sys.nodes = append(sys.nodes, nil)
			}
			sys.nodes[s] = append(sys.nodes[s], n)
			if err := n.serve(); err != nil {
				return sys, st, err
			}
			var rt http.RoundTripper = sys.transport
			if e.tr != nil {
				w := &wireSeam{next: sys.transport, tr: e.tr}
				wires = append(wires, w)
				rt = w
			}
			c, err := hub.NewClient(n.srv.URL, &http.Client{Transport: rt})
			if err != nil {
				return sys, st, err
			}
			sys.clients = append(sys.clients, c)
			reps[s] = append(reps[s], cluster.NewHTTPReplica(c))
			refShards[s] = append(refShards[s], engineBackend{n.eng})
		}
	}
	cl, err := cluster.NewCluster(reps, cluster.WithClusterObserver(o))
	if err != nil {
		return sys, st, err
	}
	pub := time.Now()
	for _, m := range models {
		// The hub client builds upload requests without a context, so
		// a traced set-up hands each publish to the replicas' wire
		// seams as their current operation.
		ctx, end := e.tr.begin(e.ctx, uploadOp)
		ref := spanOf(ctx)
		for _, w := range wires {
			w.setOp(&ref)
		}
		if isRoot(m) {
			_, err = cl.Broadcast(ctx, m)
			st.uploads += scatterShards * scatterReplicas
		} else {
			_, err = cl.Publish(ctx, m)
			st.uploads += scatterReplicas
		}
		for _, w := range wires {
			w.setOp(nil)
		}
		end()
		if err != nil {
			return sys, st, fmt.Errorf("publishing %s: %w", repo.IDFor(m), err)
		}
	}
	st.ingest = time.Since(pub)
	backends := cl.Backends()
	if e.tr != nil {
		for s := range backends {
			for r, b := range backends[s] {
				sb, ok := b.(shardBackend)
				if !ok {
					return sys, st, fmt.Errorf("replica %s has no batch surface", cluster.Target(s, r))
				}
				backends[s][r] = &backendSeam{next: sb, tr: e.tr}
			}
		}
	}
	if sys.co, err = cluster.NewCoordinator(backends, cluster.WithCoordinatorObserver(o)); err != nil {
		return sys, st, err
	}
	st.total = time.Since(start)
	sys.ref, err = cluster.NewCoordinator(refShards)
	return sys, st, err
}

// engineBackend answers a shard's part of a reference query in
// process, mapping an unknown reference to an empty contribution as
// HTTPReplica does.
type engineBackend struct{ eng *sommelier.Engine }

func (b engineBackend) Query(ctx context.Context, q string) ([]cluster.Result, error) {
	rs, err := b.eng.QueryContext(ctx, q)
	if errors.Is(err, sommelier.ErrUnknownReference) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	// The wire form is the conversion HTTPReplica applies.
	raw, err := json.Marshal(rs)
	if err != nil {
		return nil, err
	}
	var out []cluster.Result
	err = json.Unmarshal(raw, &out)
	return out, err
}

// runScatter shards the catalog over an in-process cluster and queries
// it through the coordinator.
func runScatter(e *env) (*report, error) {
	rep := &report{}
	clusterObs := newObserver(nil)
	models := e.in.corpus()
	rep.models = len(models)
	var sys *scatterSystem
	defer func() { sys.close() }()
	for i := 0; i < setupRounds; i++ {
		if sys != nil {
			sys.close()
		}
		var st setupTimes
		var err error
		if sys, st, err = buildScatter(e, models, clusterObs); err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, st)
		// Replicas of a shard receive the same writes in the same order,
		// so they are checked against the same snapshot.
		for s, reps := range sys.nodes {
			for r, n := range reps {
				label := fmt.Sprintf("set-up %d replica %s", i, cluster.Target(s, r))
				if err := rep.checkIndex(label, fmt.Sprintf("shard %d", s), n.eng); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, m := range models {
		rep.modelBytes += paramBytes(m)
	}
	rep.observers = append(rep.observers, clusterObs)
	for _, reps := range sys.nodes {
		for _, n := range reps {
			rep.nodes = append(rep.nodes, n)
			rep.observers = append(rep.observers, n.obs)
			b, err := diskBytes(n.dir)
			if err != nil {
				return nil, err
			}
			rep.storedBytes += b
		}
	}

	refs := e.in.refIDs()
	want := make(map[string][]byte)
	for _, q := range allQueries(refs) {
		resp, err := sys.ref.Query(e.ctx, q)
		if err != nil {
			return nil, fmt.Errorf("reference answer to %q: %w", q, err)
		}
		if !resp.Complete() {
			return nil, fmt.Errorf("reference answer to %q is %s", q, resp.Class())
		}
		if want[q], err = json.Marshal(resp); err != nil {
			return nil, err
		}
	}
	check := func(q string, resp *cluster.Response) bool {
		if !resp.Complete() {
			rep.fail("query %q: %s answer", q, resp.Class())
			return false
		}
		got, err := json.Marshal(resp)
		if err != nil || !bytes.Equal(got, want[q]) {
			rep.fail("query %q: coordinator answered %s, reference %s", q, got, want[q])
			return false
		}
		raw, err := json.Marshal(resp.Results)
		if err == nil {
			rep.countResults(raw)
		}
		return true
	}

	// One closed-loop client alternates a single query through
	// Coordinator.Query with a batch through Coordinator.QueryBatch.
	p := newPicker(e.seed, 0, len(refs), len(refs))
	qs := make([]string, batchSize)
	start := rep.startPhase()
	for !e.done(start, rep) {
		q := p.query(refs)
		rep.attempted.Add(1)
		ctx, end := e.tr.begin(e.ctx, "single")
		t := time.Now()
		resp, err := sys.co.Query(ctx, q)
		d := time.Since(t)
		end()
		if err != nil {
			rep.fail("query %q: %v", q, err)
		} else {
			rep.op.add(d)
			if check(q, resp) {
				rep.answers.Add(1)
			}
		}

		for i := range qs {
			qs[i] = p.query(refs)
		}
		rep.attempted.Add(batchSize)
		ctx, end = e.tr.begin(e.ctx, "batch")
		t = time.Now()
		resps, errs := sys.co.QueryBatch(ctx, qs)
		d = time.Since(t)
		end()
		rep.side.add(d)
		for i, q := range qs {
			if errs[i] != nil {
				rep.fail("batched query %q: %v", q, errs[i])
				continue
			}
			if check(q, resps[i]) {
				rep.answers.Add(1)
			}
		}
	}
	rep.endPhase(start)
	rep.busy = rep.phase
	rep.measureHeap(e)
	for _, c := range sys.clients {
		rep.retries.Add(c.Stats().Retries)
	}
	return rep, nil
}
