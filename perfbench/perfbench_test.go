package main

import (
	"context"
	"math"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"sommelier/internal/graph"
	"sommelier/internal/hub"
	"sommelier/internal/obs"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{
		{0.5, 50}, {0.9, 90}, {0.99, 99}, {0.001, 1}, {1, 100},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", 100*c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples is a number")
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.9, true}, {99, 0.9, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{20, 0.5, true}, {19, 0.5, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, 100*c.p, got, c.want)
		}
	}
	if minSamples(0.9) != 100 || minSamples(0.99) != 1000 {
		t.Errorf("minSamples = %d, %d; want 100, 1000", minSamples(0.9), minSamples(0.99))
	}
	var s samples
	for i := 0; i < 999; i++ {
		s.add(time.Millisecond)
	}
	if l := s.summarize("op", 0.99); l.err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	for i := 0; i < 1000; i++ {
		s.add(time.Millisecond)
	}
	if l := s.summarize("op", 0.99); l.err != nil || l.tail != 1 || l.p50 != 1 || l.n != 1000 {
		t.Errorf("p99 of 1000 samples = %+v; want 1 over 1000 samples", l)
	}
	if s.len() != 0 {
		t.Error("summarize kept the raw samples")
	}
}

func draws(p *picker, refs []string, n int) (qs []string, ms []int) {
	for i := 0; i < n; i++ {
		qs = append(qs, p.query(refs))
		ms = append(ms, p.model())
	}
	return qs, ms
}

func TestPickerIsSeeded(t *testing.T) {
	refs := []string{"a@1", "b@1", "c@1", "d@1", "e@1", "f@1"}
	q1, m1 := draws(newPicker(7, 0, len(refs), 48), refs, 200)
	q2, m2 := draws(newPicker(7, 0, len(refs), 48), refs, 200)
	if !reflect.DeepEqual(q1, q2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("equal seeds drew different sequences")
	}
	q3, _ := draws(newPicker(7, 1, len(refs), 48), refs, 200)
	q4, _ := draws(newPicker(8, 0, len(refs), 48), refs, 200)
	if reflect.DeepEqual(q1, q3) || reflect.DeepEqual(q1, q4) {
		t.Fatal("another stream or seed drew the same sequence")
	}
	// Zipf popularity: the first reference is drawn most.
	count := make(map[string]int)
	for _, q := range q1 {
		for _, r := range refs {
			if strings.Contains(q, r) {
				count[r]++
			}
		}
	}
	for _, r := range refs[1:] {
		if count[r] > count[refs[0]] {
			t.Errorf("%s drawn %d times, more than the most popular reference (%d)", r, count[r], count[refs[0]])
		}
	}
	for _, m := range m1 {
		if m < 0 || m >= 48 {
			t.Fatalf("model index %d outside the catalog", m)
		}
	}
}

func smallModel(t *testing.T, name string) *graph.Model {
	t.Helper()
	m, err := zoo.DenseResidualNet(zoo.Config{Name: name, Seed: 3, Width: 8, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	m.Version = "1"
	return m
}

// The hub server type-asserts its store for hub.ChunkStore; through the
// Store seam a publish must still negotiate chunks, not fall back to
// a whole-model upload.
func TestStoreSeamKeepsChunkNegotiation(t *testing.T) {
	r, err := repo.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	defer tr.stopDrain()
	var store hub.Store = &storeSeam{Repository: r, tr: tr}
	if _, ok := store.(hub.ChunkStore); !ok {
		t.Fatal("storeSeam does not implement hub.ChunkStore")
	}
	srv, err := hub.NewServer(store)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	c, err := hub.NewClient(ts.URL, ts.Client())
	if err != nil {
		t.Fatal(err)
	}
	_, sent, err := c.PublishModel(smallModel(t, "seam"))
	if err != nil {
		t.Fatal(err)
	}
	if sent < 0 {
		t.Fatal("publish fell back to a whole-model upload")
	}
	names := make(map[string]int)
	for _, s := range tr.records() {
		names[s.name]++
	}
	if names["repo.put_chunk"] == 0 || names["repo.publish"] == 0 {
		t.Fatalf("seam recorded %v, want repo.put_chunk and repo.publish spans", names)
	}
}

// Self times and the unattributed residual partition the client's
// time exactly, with nested time going to the innermost layer.
func TestSelfTimesPartitionTheOperation(t *testing.T) {
	spans := []spanRec{
		{op: 1, id: 1, layer: layerClient, start: 0, end: 100},
		{op: 1, id: 2, parent: 1, layer: layerHub, start: 10, end: 90},
		{op: 1, id: 3, parent: 2, layer: layerSommelier, start: 20, end: 60},
		{op: 1, id: 4, parent: 3, layer: layerRepo, start: 30, end: 40},
		// Two overlapping catalog spans count once.
		{op: 1, id: 5, parent: 3, layer: layerCatalog, start: 45, end: 55},
		{op: 1, id: 6, parent: 3, layer: layerCatalog, start: 50, end: 58},
		// A span outside every operation is ignored.
		{op: 0, id: 7, layer: layerRepo, start: 0, end: 1000},
	}
	b := selfTimes(spans)
	want := [numLayers]float64{layerClient: 20, layerHub: 40, layerSommelier: 17, layerCatalog: 13, layerRepo: 10}
	if b.ops != 1 || b.total != 100 || b.self != want {
		t.Fatalf("selfTimes = %+v, want 1 op of 100 split %v", b, want)
	}
	var sum float64
	for _, v := range b.self {
		sum += v
	}
	if sum != b.total {
		t.Fatalf("self times sum to %g, client observed %g", sum, b.total)
	}
}

// The program's spans under an anchor join the anchoring operation.
func TestFoldAttachesProgramSpans(t *testing.T) {
	tr := newTracer()
	defer tr.stopDrain()
	o := obs.New(obs.WithClock(tr))
	root := tr.root("query")
	sp := tr.child(root.ref(), layerHub, "hub.server/query")
	ctx, anchor := o.StartSpan(context.Background(), anchorSpan, strconv.FormatUint(sp.rec.id, 10))
	_, q := o.StartSpan(ctx, "query", "")
	_, pair := o.StartSpan(ctx, "pair", "")
	pair.End()
	q.End()
	anchor.End()
	_, stray := o.StartSpan(context.Background(), "query", "")
	stray.End()
	sp.end()
	root.end()
	got := fold(tr.records(), o.Tracer().Recent())
	if len(got) != 2 {
		t.Fatalf("folded %d spans, want 2: %+v", len(got), got)
	}
	for _, s := range got {
		if s.op != root.rec.op {
			t.Errorf("span %s joined op %d, want %d", s.name, s.op, root.rec.op)
		}
	}
	if got[0].layer != layerSommelier && got[1].layer != layerSommelier {
		t.Error("query span not filed under sommelier")
	}
}
