package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	"sommelier"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// traceCap sizes the program's span ring in traced runs; the tracer
// drains it every drainEvery.
const traceCap = 1 << 16

// nodeStore is what both the engine and the hub server need from the
// repository; *repo.Repository and *storeSeam provide it.
type nodeStore interface {
	sommelier.Store
	hub.Store
	hub.ChunkStore
}

// node is one hub server over an on-disk repository, with an engine
// wired the way `sommhub -index` wires it: one observer shared by the
// server and the engine, every accepted upload indexed before its 201.
type node struct {
	dir   string
	repo  *repo.Repository
	store nodeStore
	eng   *sommelier.Engine
	obs   *obs.Observer
	srv   *httptest.Server
	tr    *tracer
}

// newObserver returns the program's observer for one component: as
// `sommhub` builds it without -trace, or recording every span on the
// tracer's clock in traced runs.
func newObserver(tr *tracer) *obs.Observer {
	if tr == nil {
		return obs.New(obs.WithTraceCap(0))
	}
	o := obs.New(obs.WithTraceCap(traceCap), obs.WithClock(tr))
	tr.watch(o)
	return o
}

// openNode opens an empty repository in dir with an engine over it.
func openNode(dir string, seed uint64, tr *tracer) (*node, error) {
	r, err := repo.Open(dir)
	if err != nil {
		return nil, err
	}
	n := &node{dir: dir, repo: r, store: r, obs: newObserver(tr), tr: tr}
	if tr != nil {
		n.store = &storeSeam{Repository: r, tr: tr}
	}
	n.eng, err = sommelier.NewEngine(n.store, sommelier.WithSeed(seed), sommelier.WithObserver(n.obs))
	if err != nil {
		return nil, err
	}
	return n, nil
}

// indexAll runs IndexAllContext as part of the client operation op.
func (n *node) indexAll(ctx context.Context, op spanRef) error {
	if n.tr == nil {
		return n.eng.IndexAllContext(ctx)
	}
	sp := n.tr.child(op, layerSommelier, "sommelier.indexall")
	ctx, anchor := n.obs.StartSpan(ctx, anchorSpan, fmt.Sprint(sp.rec.id))
	unbind := n.tr.bind(sp.ref())
	err := n.eng.IndexAllContext(ctx)
	unbind()
	anchor.End()
	sp.end()
	return err
}

// serve starts the hub server and returns once it has answered its
// first request.
func (n *node) serve() error {
	var (
		ix    hub.Indexer      = n.eng
		q     hub.Querier      = func(ctx context.Context, q string) (any, error) { return n.eng.QueryContext(ctx, q) }
		batch hub.BatchQuerier = engineBatchQuerier(n.eng)
	)
	if n.tr != nil {
		ix, q, batch = &indexerSeam{next: ix, tr: n.tr}, querierSeam(n.tr, q), batchSeam(n.tr, batch)
	}
	srv, err := hub.NewServer(n.store,
		hub.WithMaxBodyBytes(64<<20),
		hub.WithServerObserver(n.obs),
		hub.WithIndexer(ix),
		hub.WithQuerier(q),
		hub.WithBatchQuerier(batch))
	if err != nil {
		return err
	}
	var h http.Handler = srv
	if n.tr != nil {
		h = &handlerSeam{next: srv, tr: n.tr, obs: n.obs}
	}
	n.srv = httptest.NewServer(h)
	resp, err := n.srv.Client().Get(n.srv.URL + "/v1/healthz")
	if err != nil {
		return fmt.Errorf("first request: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("first request: status %d", resp.StatusCode)
	}
	return nil
}

func (n *node) close() {
	if n.srv != nil {
		n.srv.Close()
	}
}

// engineBatchQuerier adapts the engine's batched path to POST
// /v1/query exactly as cmd/sommhub does, including the
// unknown-reference code a coordinator maps to an empty contribution.
func engineBatchQuerier(eng *sommelier.Engine) hub.BatchQuerier {
	return func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
		results, errs := eng.QueryBatchContext(ctx, qs)
		out := make([]any, len(qs))
		qerrs := make([]*hub.QueryError, len(qs))
		for i := range qs {
			if err := errs[i]; err != nil {
				qe := &hub.QueryError{Message: err.Error()}
				if errors.Is(err, sommelier.ErrUnknownReference) {
					qe.Code = hub.CodeUnknownReference
				}
				qerrs[i] = qe
				continue
			}
			out[i] = results[i]
		}
		return out, qerrs
	}
}

// setupTimes is one set-up's cost.
type setupTimes struct {
	// total runs from the empty repository to the first answered
	// request; ingest from the first publish to IndexAllContext's
	// return.
	total, ingest time.Duration
	// uploads counts the replica uploads of a sharded set-up: a model
	// goes to each replica of its shard, a reference to every replica.
	uploads int
}

// startNode builds a serving node over models, the set-up every hub
// workload measures.
func startNode(ctx context.Context, dir string, models []*graph.Model, seed uint64, tr *tracer) (*node, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	n, err := openNode(dir, seed, tr)
	if err != nil {
		return nil, st, err
	}
	pub := time.Now()
	for _, m := range models {
		if _, err := n.store.Publish(m); err != nil {
			return nil, st, fmt.Errorf("publishing %s: %w", repo.IDFor(m), err)
		}
	}
	if err := n.indexAll(ctx, spanRef{}); err != nil {
		return nil, st, fmt.Errorf("indexing: %w", err)
	}
	st.ingest = time.Since(pub)
	if err := n.serve(); err != nil {
		return nil, st, err
	}
	st.total = time.Since(start)
	return n, st, nil
}

// checkIndex compares eng's SaveIndexes output with the first
// snapshot recorded under key in this pass: equal inputs must index
// byte-identically, whatever the worker interleaving. A mismatch fails
// the run and names where the snapshots part.
func (r *report) checkIndex(label, key string, eng *sommelier.Engine) error {
	var buf bytes.Buffer
	if err := eng.SaveIndexes(&buf); err != nil {
		return fmt.Errorf("%s: saving indexes: %w", label, err)
	}
	got := buf.Bytes()
	if r.snapshots == nil {
		r.snapshots = make(map[string][]byte)
	}
	want, ok := r.snapshots[key]
	if !ok {
		r.snapshots[key] = got
		return nil
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		around := func(b []byte) []byte { return b[max(i-80, 0):min(i+80, len(b))] }
		r.fail("%s: SaveIndexes differs from the first %s at byte %d: %s … versus %s …",
			label, key, i, around(got), around(want))
	}
	return nil
}

// indexDigest digests the pass's first snapshots, in key order; every
// run of a commit over the same seed must print the same digest.
func (r *report) indexDigest() string {
	h := sha256.New()
	for _, k := range sortedKeys(r.snapshots) {
		h.Write(r.snapshots[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// diskBytes sums the regular files under dir: chunks and manifests.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
