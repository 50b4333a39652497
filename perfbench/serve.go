package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"time"

	"sommelier"
	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
)

// Catalog sizes. Generating the zoo costs about 0.1 s per catalog
// model, so every workload keeps 24 catalog models; query grows its
// corpus to 48 with cheap fine-tuned descendants.
const (
	serveSeries      = 6
	serveDescendants = 24
)

var serveShape = shape{series: serveSeries, descendants: serveDescendants}

// setupNodes builds the serving node setupRounds times from empty
// repositories and keeps the last; every round must index identically.
func setupNodes(e *env, rep *report) (*node, error) {
	models := e.in.corpus()
	rep.models = len(models)
	var last *node
	for i := 0; i < setupRounds; i++ {
		if last != nil {
			last.close()
			if err := os.RemoveAll(last.dir); err != nil {
				return nil, err
			}
		}
		n, st, err := startNode(e.ctx, e.dir("node"), models, e.seed, e.tr)
		if err != nil {
			return nil, err
		}
		last = n
		rep.setups = append(rep.setups, st)
		if got := n.eng.IndexedLen(); got != len(models) {
			rep.fail("set-up %d indexed %d models, want %d", i, got, len(models))
		}
		if err := rep.checkIndex(fmt.Sprintf("set-up %d", i), "node", n.eng); err != nil {
			return nil, err
		}
	}
	for _, m := range models {
		rep.modelBytes += paramBytes(m)
	}
	rep.nodes = []*node{last}
	rep.observers = []*obs.Observer{last.obs}
	return last, nil
}

// newTransport gives each client its own connection pool.
func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: time.Minute}
}

// hubClient is one benchmark client: a hub.Client over transport t,
// wrapped by a wireSeam in traced runs.
type hubClient struct {
	*hub.Client
	wire *wireSeam
	tr   *tracer
}

func newHubClient(url string, t *http.Transport, tr *tracer, opts ...hub.Option) (*hubClient, error) {
	hc := &hubClient{tr: tr}
	var rt http.RoundTripper = t
	if tr != nil {
		hc.wire = &wireSeam{next: t, tr: tr}
		rt = hc.wire
	}
	c, err := hub.NewClient(url, &http.Client{Transport: rt}, opts...)
	if err != nil {
		return nil, err
	}
	hc.Client = c
	return hc, nil
}

// begin opens a client operation: in traced runs a root span, bound to
// the caller's context and to the client's transport. The returned
// function ends it.
func (c *hubClient) begin(ctx context.Context, name string) (context.Context, func()) {
	if c.tr == nil {
		return ctx, func() {}
	}
	ctx, end := c.tr.begin(ctx, name)
	ref := spanOf(ctx)
	c.wire.setOp(&ref)
	return ctx, func() {
		c.wire.setOp(nil)
		end()
	}
}

// referenceAnswers computes, for every query the mix can draw, the
// in-process engine's QueryContext answer as canonical JSON: what every
// hub answer is checked against.
func referenceAnswers(ctx context.Context, eng *sommelier.Engine, refs []string) (map[string][]byte, error) {
	want := make(map[string][]byte)
	for _, q := range allQueries(refs) {
		res, err := eng.QueryContext(ctx, q)
		if err != nil {
			return nil, fmt.Errorf("reference answer to %q: %w", q, err)
		}
		if want[q], err = json.Marshal(res); err != nil {
			return nil, err
		}
	}
	return want, nil
}

// canonical compacts a JSON value so answers compare byte for byte.
func canonical(raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// countResults records the size of one answer for the mix guards.
func (r *report) countResults(raw []byte) {
	var rs []json.RawMessage
	if err := json.Unmarshal(raw, &rs); err != nil {
		return
	}
	r.answered.Add(1)
	r.results.Add(int64(len(rs)))
	if len(rs) == 0 {
		r.empty.Add(1)
	}
}

// hubQuery sends one query and checks the answer against the
// engine's own. It returns whether the answer was correct.
func hubQuery(ctx context.Context, c *hubClient, want map[string][]byte, rep *report, lat *samples, q string) bool {
	rep.attempted.Add(1)
	ctx, end := c.begin(ctx, "query")
	start := time.Now()
	raw, err := c.Query(ctx, q)
	d := time.Since(start)
	end()
	if err != nil {
		rep.fail("query %q: %v", q, err)
		return false
	}
	lat.add(d)
	got, err := canonical(raw)
	if err != nil {
		rep.fail("query %q: undecodable answer: %v", q, err)
		return false
	}
	rep.countResults(got)
	if !bytes.Equal(got, want[q]) {
		rep.fail("query %q: hub answered %s, engine %s", q, got, want[q])
		return false
	}
	return true
}

// runQuery serves the corpus from one hub. One closed-loop client
// sends one query of the mix, then fetches one Zipf-popular model
// through a client cache that holds an eighth of the corpus, so
// fetches mix a minority of cache hits with hydration and SOMX
// transfer. The client waits on each answer, so the client, the
// server goroutine it waits on and the collector share the host's
// cores without a second client contending for them.
func runQuery(e *env) (*report, error) {
	rep := &report{}
	n, err := setupNodes(e, rep)
	if err != nil {
		return nil, err
	}
	defer n.close()
	refs := e.in.refIDs()
	want, err := referenceAnswers(e.ctx, n.eng, refs)
	if err != nil {
		return nil, err
	}
	models := e.in.corpus()
	if rep.storedBytes, err = diskBytes(n.dir); err != nil {
		return nil, err
	}
	t := newTransport()
	defer t.CloseIdleConnections()
	c, err := newHubClient(n.srv.URL, t, e.tr, hub.WithCacheCap(len(models)/8))
	if err != nil {
		return nil, err
	}
	p := newPicker(e.seed, 0, len(refs), len(models))
	seen := make(map[*graph.Model]bool)
	start := rep.startPhase()
	for !e.done(start, rep) {
		if hubQuery(e.ctx, c, want, rep, &rep.op, p.query(refs)) {
			rep.answers.Add(1)
		}
		fetch(e, c, rep, seen, models[p.model()])
	}
	rep.retries.Add(c.Stats().Retries)
	rep.endPhase(start)
	rep.busy = rep.phase
	rep.measureHeap(e)
	return rep, nil
}

// fetch loads one model through the client and checks it hashes equal
// to the model published. A model instance is hashed once: cache hits
// return the instance already checked.
func fetch(e *env, c *hubClient, rep *report, seen map[*graph.Model]bool, m *graph.Model) {
	id := repo.IDFor(m)
	rep.attempted.Add(1)
	_, end := c.begin(e.ctx, "fetch")
	start := time.Now()
	got, err := c.Load(id)
	d := time.Since(start)
	end()
	if err != nil {
		rep.fail("fetch %s: %v", id, err)
		return
	}
	rep.side.add(d)
	if seen[got] {
		return
	}
	seen[got] = true
	sum, err := modelDigest(got)
	if err != nil || sum != e.in.digests[id] {
		rep.fail("fetch %s: model differs from the one published (%v)", id, err)
	}
}
