package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/obs"
)

// layer names a module a span's time belongs to. The order is the
// nesting order along every call path the workloads take: a cluster
// backend call wraps hub HTTP, a hub handler wraps the engine, the
// engine wraps catalog analysis, which wraps pair analysis, and any of
// them may call into the repository.
type layer int8

const (
	// layerClient is the caller's own time outside every instrumented
	// layer: the unattributed residual.
	layerClient layer = iota
	layerCluster
	layerHub
	layerSommelier
	layerCatalog
	layerEquiv
	layerRepo
	numLayers
)

var layerNames = [numLayers]string{"unattributed", "cluster", "hub", "sommelier", "catalog", "equiv", "repo"}

// spanRef identifies an open span and the client operation it belongs
// to; the zero value means "no operation".
type spanRef struct{ op, id uint64 }

// spanRec is one finished span. op is the ID of the client operation's
// root span; start and end are nanoseconds since the tracer's base.
type spanRec struct {
	op, id, parent uint64
	layer          layer
	name           string
	start, end     int64
	bytes          int64
}

// tracer keeps every span of a traced run in memory until the run
// ends. A nil *tracer is an untraced run: seams are then not installed
// at all.
type tracer struct {
	base   time.Time
	nextID atomic.Uint64

	mu    sync.Mutex
	spans []spanRec // guarded by mu

	gmu   sync.Mutex
	bound map[int64]spanRef // guarded by gmu

	wmu     sync.Mutex
	watched []*watched // guarded by wmu
	stop    chan struct{}
	done    chan struct{}
}

// watched is one program observer whose span ring the tracer drains.
type watched struct {
	o      *obs.Observer
	recs   []obs.SpanRecord
	lastID uint64
}

// drainEvery is how often the program's span rings are emptied into
// the tracer; a ring of traceCap spans then holds several hundred
// thousand spans per second without evicting one unread.
const drainEvery = 100 * time.Millisecond

// newTracer starts a tracer; stopDrain must be called when the traced
// pass ends.
func newTracer() *tracer {
	t := &tracer{
		base: time.Now(), bound: make(map[int64]spanRef),
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	go func() {
		defer close(t.done)
		tick := time.NewTicker(drainEvery)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.drain()
			}
		}
	}()
	return t
}

// watch registers a program observer whose spans the tracer keeps.
func (t *tracer) watch(o *obs.Observer) {
	t.wmu.Lock()
	t.watched = append(t.watched, &watched{o: o})
	t.wmu.Unlock()
}

// drain copies every span recorded since the last drain out of each
// watched ring. A ring lists spans oldest first, so the new ones
// follow the last span taken before.
func (t *tracer) drain() {
	t.wmu.Lock()
	ws := append([]*watched(nil), t.watched...)
	t.wmu.Unlock()
	for _, w := range ws {
		recs := w.o.Tracer().Recent()
		from := 0
		if w.lastID != 0 {
			for i := len(recs) - 1; i >= 0; i-- {
				if recs[i].ID == w.lastID {
					from = i + 1
					break
				}
			}
		}
		if from < len(recs) {
			w.recs = append(w.recs, recs[from:]...)
			w.lastID = recs[len(recs)-1].ID
		}
	}
}

// stopDrain ends the draining goroutine after a last drain.
func (t *tracer) stopDrain() {
	close(t.stop)
	<-t.done
	t.drain()
}

// programSpans returns the spans drained from o and how many the ring
// evicted before they could be drained.
func (t *tracer) programSpans(o *obs.Observer) (recs []obs.SpanRecord, dropped int64) {
	t.wmu.Lock()
	defer t.wmu.Unlock()
	for _, w := range t.watched {
		if w.o == o {
			return w.recs, o.Tracer().Total() - int64(len(w.recs))
		}
	}
	return nil, 0
}

// NowNanos makes the tracer the obs clock, so the program's own spans
// share the benchmark's time base.
func (t *tracer) NowNanos() int64 { return int64(time.Since(t.base)) }

// openSpan is a span being timed.
type openSpan struct {
	t   *tracer
	rec spanRec
}

func (s *openSpan) ref() spanRef { return spanRef{op: s.rec.op, id: s.rec.id} }

// end records the span.
func (s *openSpan) end() { s.endBytes(0) }

// endBytes records the span with the request body bytes it carried.
func (s *openSpan) endBytes(n int64) {
	s.rec.end = s.t.NowNanos()
	s.rec.bytes = n
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// root opens a client operation.
func (t *tracer) root(name string) *openSpan {
	id := t.nextID.Add(1)
	return &openSpan{t: t, rec: spanRec{op: id, id: id, layer: layerClient, name: name, start: t.NowNanos()}}
}

// child opens a span under parent. A zero parent still records the
// span, outside every operation.
func (t *tracer) child(parent spanRef, l layer, name string) *openSpan {
	return &openSpan{t: t, rec: spanRec{
		op: parent.op, id: t.nextID.Add(1), parent: parent.id,
		layer: l, name: name, start: t.NowNanos(),
	}}
}

// begin opens a client operation, carried by the returned context and
// bound to the calling goroutine; the returned function ends it. On a
// nil tracer it does nothing.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	sp := t.root(name)
	unbind := t.bind(sp.ref())
	return withSpan(ctx, sp.ref()), func() {
		unbind()
		sp.end()
	}
}

type spanKey struct{}

func withSpan(ctx context.Context, r spanRef) context.Context {
	return context.WithValue(ctx, spanKey{}, r)
}

func spanOf(ctx context.Context) spanRef {
	r, _ := ctx.Value(spanKey{}).(spanRef)
	return r
}

// goid returns the calling goroutine's ID. The repository's Store
// methods take no context, so a Store call finds its request through
// the goroutine the hub handler (or a set-up's indexing call) bound.
func goid() int64 {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(string(f[1]), 10, 64)
	return id
}

// bind attributes Store calls on this goroutine to r until the
// returned function runs.
func (t *tracer) bind(r spanRef) func() {
	g := goid()
	t.gmu.Lock()
	prev, had := t.bound[g]
	t.bound[g] = r
	t.gmu.Unlock()
	return func() {
		t.gmu.Lock()
		if had {
			t.bound[g] = prev
		} else {
			delete(t.bound, g)
		}
		t.gmu.Unlock()
	}
}

// boundRef returns the span bound to the calling goroutine.
func (t *tracer) boundRef() spanRef {
	g := goid()
	t.gmu.Lock()
	defer t.gmu.Unlock()
	return t.bound[g]
}

func (t *tracer) records() []spanRec {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]spanRec(nil), t.spans...)
}

// anchorSpan is the obs span a handler seam opens around the program
// so the program's own spans can be found again; its detail carries
// the benchmark span's ID.
const anchorSpan = "bench.req"

// obsLayer maps the program's span names to layers.
func obsLayer(name string) (layer, bool) {
	switch {
	case strings.HasPrefix(name, "hub."):
		return layerHub, true
	case name == "pair":
		return layerEquiv, true
	case strings.HasPrefix(name, "catalog."), name == "plan", name == "analyze", name == "commit", name == "profile":
		return layerCatalog, true
	case name == "query", name == "query_batch", name == "parse", name == "candidates",
		name == "filter", name == "rank", name == "explain":
		return layerSommelier, true
	}
	return 0, false
}

// fold converts the program's spans recorded under anchors into
// benchmark spans of the anchoring operation.
func fold(own []spanRec, recs []obs.SpanRecord) []spanRec {
	byID := make(map[uint64]spanRec, len(own))
	for _, s := range own {
		byID[s.id] = s
	}
	kids := make(map[uint64][]obs.SpanRecord)
	for _, r := range recs {
		kids[r.Parent] = append(kids[r.Parent], r)
	}
	var out []spanRec
	var walk func(parent uint64, op uint64)
	walk = func(parent uint64, op uint64) {
		for _, k := range kids[parent] {
			if l, ok := obsLayer(k.Name); ok {
				out = append(out, spanRec{
					op: op, layer: l, name: k.Name,
					start: k.StartNS, end: k.StartNS + k.DurNS,
				})
			}
			walk(k.ID, op)
		}
	}
	for _, r := range recs {
		if r.Name != anchorSpan {
			continue
		}
		id, err := strconv.ParseUint(r.Detail, 10, 64)
		if err != nil {
			continue
		}
		if s, ok := byID[id]; ok && s.op != 0 {
			walk(r.ID, s.op)
		}
	}
	return out
}

// breakdown is the per-layer split of the time clients observed.
type breakdown struct {
	ops   int
	total float64 // ns, summed over operations
	self  [numLayers]float64
}

// selfTimes splits every operation's wall time across layers: at each
// instant the time goes to the innermost layer with a span open in
// that operation, and to the unattributed residual when only the root
// is open. The layer shares of an operation therefore sum exactly to
// its root span, the time the client observed.
func selfTimes(spans []spanRec) breakdown {
	type event struct {
		at    int64
		layer layer
		delta int
	}
	roots := make(map[uint64]spanRec)
	byOp := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.op == 0 {
			continue
		}
		if s.id == s.op {
			roots[s.op] = s
		} else {
			byOp[s.op] = append(byOp[s.op], s)
		}
	}
	var b breakdown
	for op, root := range roots {
		b.ops++
		b.total += float64(root.end - root.start)
		evs := []event{{root.start, layerClient, 1}, {root.end, layerClient, -1}}
		for _, s := range byOp[op] {
			start, end := max(s.start, root.start), min(s.end, root.end)
			if end <= start {
				continue
			}
			evs = append(evs, event{start, s.layer, 1}, event{end, s.layer, -1})
		}
		sort.Slice(evs, func(i, j int) bool { return evs[i].at < evs[j].at })
		var open [numLayers]int
		for i, e := range evs {
			if i > 0 {
				if dt := e.at - evs[i-1].at; dt > 0 {
					for l := numLayers - 1; l >= 0; l-- {
						if open[l] > 0 {
							b.self[l] += float64(dt)
							break
						}
					}
				}
			}
			open[e.layer] += e.delta
		}
	}
	return b
}
