package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sommelier"
	"sommelier/internal/cas"
	"sommelier/internal/cluster"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// The seams below wrap interfaces the program already exposes and
// record one span per call. They are installed only in traced runs.

// storeSeam wraps the on-disk repository. Embedding forwards every
// method, hub.ChunkStore's included: the hub server type-asserts its
// store for chunk negotiation and silently falls back to whole-model
// uploads when the assertion fails.
type storeSeam struct {
	*repo.Repository
	tr *tracer
}

var (
	_ sommelier.Store = (*storeSeam)(nil)
	_ hub.Store       = (*storeSeam)(nil)
	_ hub.ChunkStore  = (*storeSeam)(nil)
)

func (s *storeSeam) span(name string) *openSpan {
	return s.tr.child(s.tr.boundRef(), layerRepo, name)
}

func (s *storeSeam) Publish(m *graph.Model) (string, error) {
	sp := s.span("repo.publish")
	defer sp.end()
	return s.Repository.Publish(m)
}

func (s *storeSeam) Load(id string) (*graph.Model, error) {
	sp := s.span("repo.load")
	defer sp.end()
	return s.Repository.Load(id)
}

func (s *storeSeam) PutChunk(hash string, data []byte) error {
	sp := s.span("repo.put_chunk")
	defer sp.end()
	return s.Repository.PutChunk(hash, data)
}

func (s *storeSeam) PublishManifest(man *cas.Manifest) (string, error) {
	sp := s.span("repo.publish")
	defer sp.end()
	return s.Repository.PublishManifest(man)
}

// spanHeader carries the client-side wire span ("op/id") to the hub
// handler, so server spans join the request that caused them.
const spanHeader = "X-Bench-Span"

func parseRef(h string) spanRef {
	op, id, ok := strings.Cut(h, "/")
	if !ok {
		return spanRef{}
	}
	o, err1 := strconv.ParseUint(op, 10, 64)
	i, err2 := strconv.ParseUint(id, 10, 64)
	if err1 != nil || err2 != nil {
		return spanRef{}
	}
	return spanRef{op: o, id: i}
}

// endpoint classifies a hub request the way the per-layer metrics
// group them.
func endpoint(r *http.Request) string {
	switch {
	case r.URL.Path == "/v1/query" && r.Method == http.MethodGet:
		return "query"
	case r.URL.Path == "/v1/query" && r.Method == http.MethodPost:
		return "batch"
	case strings.HasPrefix(r.URL.Path, "/v1/models/") && r.Method == http.MethodGet:
		return "fetch"
	case r.Method == http.MethodPut:
		return "upload"
	}
	return "other"
}

// handlerSeam wraps hub.Server.ServeHTTP. It moves the request's span
// into the context (for the Querier and Indexer seams), binds it to the
// handler goroutine (for the Store seam), and opens an anchor span in
// the program's observer so the program's own spans fold into it.
type handlerSeam struct {
	next http.Handler
	tr   *tracer
	obs  *obs.Observer
}

func (h *handlerSeam) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.tr.child(parseRef(r.Header.Get(spanHeader)), layerHub, "hub.server/"+endpoint(r))
	ctx := withSpan(r.Context(), sp.ref())
	ctx, anchor := h.obs.StartSpan(ctx, anchorSpan, strconv.FormatUint(sp.rec.id, 10))
	unbind := h.tr.bind(sp.ref())
	h.next.ServeHTTP(w, r.WithContext(ctx))
	unbind()
	anchor.End()
	sp.end()
}

// wireSeam is a hub client's http.RoundTripper. Each exchange is a
// span from send until the response body is closed; its ID travels in
// spanHeader. Requests built from a caller's context carry the
// caller's span; the hub client builds Load and publish requests
// without one, so those use the owning client's current operation.
type wireSeam struct {
	next http.RoundTripper
	tr   *tracer
	cur  atomic.Pointer[spanRef]
}

func (w *wireSeam) setOp(r *spanRef) { w.cur.Store(r) }

func (w *wireSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	parent := spanOf(req.Context())
	if parent.op == 0 {
		if cur := w.cur.Load(); cur != nil {
			parent = *cur
		}
	}
	sp := w.tr.child(parent, layerHub, "hub.wire")
	sent := max(req.ContentLength, 0)
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sp.rec.op, sp.rec.id))
	resp, err := w.next.RoundTrip(req)
	if err != nil {
		sp.endBytes(sent)
		return nil, err
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, sp: sp, sent: sent}
	return resp, nil
}

// spanBody ends the wire span when the client closes the body, after
// it has read the whole response.
type spanBody struct {
	io.ReadCloser
	once sync.Once
	sp   *openSpan
	sent int64
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.sp.endBytes(b.sent) })
	return err
}

// querierSeam, batchSeam and indexerSeam wrap the engine hooks the hub
// server calls.
func querierSeam(tr *tracer, next hub.Querier) hub.Querier {
	return func(ctx context.Context, q string) (any, error) {
		sp := tr.child(spanOf(ctx), layerSommelier, "sommelier.query")
		defer sp.end()
		return next(ctx, q)
	}
}

func batchSeam(tr *tracer, next hub.BatchQuerier) hub.BatchQuerier {
	return func(ctx context.Context, qs []string) ([]any, []*hub.QueryError) {
		sp := tr.child(spanOf(ctx), layerSommelier, "sommelier.batch")
		defer sp.end()
		return next(ctx, qs)
	}
}

type indexerSeam struct {
	next hub.Indexer
	tr   *tracer
}

func (ix *indexerSeam) IndexModel(ctx context.Context, id string, m *graph.Model) error {
	sp := ix.tr.child(spanOf(ctx), layerSommelier, "sommelier.index")
	defer sp.end()
	return ix.next.IndexModel(ctx, id, m)
}

// shardBackend is what the coordinator calls on a replica.
type shardBackend interface {
	cluster.QueryBackend
	cluster.BatchQueryBackend
}

// backendSeam wraps one replica as the coordinator sees it.
type backendSeam struct {
	next shardBackend
	tr   *tracer
}

func (b *backendSeam) Query(ctx context.Context, q string) ([]cluster.Result, error) {
	sp := b.tr.child(spanOf(ctx), layerCluster, "cluster.backend")
	defer sp.end()
	return b.next.Query(withSpan(ctx, sp.ref()), q)
}

func (b *backendSeam) QueryBatch(ctx context.Context, qs []string) ([][]cluster.Result, []error, error) {
	sp := b.tr.child(spanOf(ctx), layerCluster, "cluster.backend")
	defer sp.end()
	return b.next.QueryBatch(withSpan(ctx, sp.ref()), qs)
}
