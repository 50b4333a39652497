package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"time"

	"sommelier/internal/graph"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// inputs is everything a workload feeds the program. It is generated
// from the seed before any timed region, so generation cost never
// lands in a measured number (it is reported as bench.gen_s).
type inputs struct {
	// catalog holds the zoo.Catalog series models; they are the query
	// references.
	catalog []*graph.Model
	// descendants are fine-tuned children of catalog models. They share
	// chunks with their bases, which is what gives the store something
	// to deduplicate: the catalog alone shares none.
	descendants []*graph.Model
	// digests maps a model ID to the SHA-256 of its SOMX encoding, the
	// reference every fetched or reloaded model is checked against.
	digests map[string][32]byte
	genTime time.Duration
}

// corpus is the set every set-up publishes: the catalog, then the
// descendants.
func (in *inputs) corpus() []*graph.Model {
	out := make([]*graph.Model, 0, len(in.catalog)+len(in.descendants))
	out = append(out, in.catalog...)
	return append(out, in.descendants...)
}

// refIDs lists the query references: the catalog's model IDs.
func (in *inputs) refIDs() []string {
	ids := make([]string, len(in.catalog))
	for i, m := range in.catalog {
		ids[i] = repo.IDFor(m)
	}
	return ids
}

// shape sizes a workload's generated inputs.
type shape struct {
	series      int // zoo.Catalog series of perSeries models each
	descendants int
}

const perSeries = 4

func generate(seed uint64, sh shape) (*inputs, error) {
	start := time.Now()
	trunks := (sh.series + 1) / 2
	all, err := zoo.Catalog(zoo.CatalogConfig{
		NumSeries: sh.series, MinPerSeries: perSeries, MaxPerSeries: perSeries,
		NumTrunks: trunks, Seed: seed,
	})
	if err != nil {
		return nil, fmt.Errorf("generating catalog: %w", err)
	}
	in := &inputs{digests: make(map[string][32]byte)}
	for _, s := range all {
		in.catalog = append(in.catalog, s.Models...)
	}
	// Descendant i derives from catalog model i (mod the catalog size), so
	// every seed's corpus has the same architectures and sizes; the seed
	// changes weights and edits only.
	for i := 0; i < sh.descendants; i++ {
		base := in.catalog[i%len(in.catalog)]
		m, err := descendant(base, fmt.Sprintf("%s-ft%03d", base.Name, i), i, seed+uint64(i))
		if err != nil {
			return nil, err
		}
		in.descendants = append(in.descendants, m)
	}
	for _, group := range [][]*graph.Model{in.catalog, in.descendants} {
		for _, m := range group {
			d, err := modelDigest(m)
			if err != nil {
				return nil, err
			}
			in.digests[repo.IDFor(m)] = d
		}
	}
	in.genTime = time.Since(start)
	return in, nil
}

// descendant derives a fine-tuned child of base the way storebench's
// series does, cycling through a sparse edit (delta territory), a
// frozen-trunk head swap, and a head swap with the last trunk layer
// lightly tuned.
func descendant(base *graph.Model, name string, i int, seed uint64) (*graph.Model, error) {
	order, err := base.TopoSort()
	if err != nil {
		return nil, err
	}
	linears := 0
	for _, l := range order {
		if l.Op.Class() == graph.ClassLinear {
			linears++
		}
	}
	trunk := linears - 1 // everything but the classifier head
	var m *graph.Model
	switch i % 3 {
	case 0:
		m, err = zoo.SparseEdit(base, name, 8, seed)
	case 1:
		m, err = zoo.Transfer(base, name, 8, trunk, 0, seed)
	default:
		m, err = zoo.Transfer(base, name, 8, trunk-1, 0.02, seed)
	}
	if err != nil {
		return nil, fmt.Errorf("deriving %s: %w", name, err)
	}
	m.Version = "1"
	return m, nil
}

func modelDigest(m *graph.Model) ([32]byte, error) {
	var buf bytes.Buffer
	if err := graph.Encode(&buf, m); err != nil {
		return [32]byte{}, fmt.Errorf("encoding %s: %w", m.Name, err)
	}
	return sha256.Sum256(buf.Bytes()), nil
}

// paramBytes is the size of m's parameter tensors (float64 elements).
func paramBytes(m *graph.Model) int64 { return 8 * m.ParamCount() }

// queryShapes is the fixed query mix: similarity only, a one-sided
// memory budget, a memory range, and an EXEC re-profiling shape. All
// use WITHIN 80%, where nearly every catalog reference has
// equivalents; tighter shapes such as WITHIN 90% ON flops <= 150%
// return nothing on these catalogs and would measure empty scans.
var queryShapes = []string{
	"SELECT CORR %q WITHIN 80%% PICK most_similar",
	"SELECT CORR %q WITHIN 80%% ON memory <= 150%% PICK smallest",
	"SELECT CORR %q WITHIN 80%% ON memory >= 50%% AND memory <= 200%% PICK cheapest",
	"SELECT CORR %q WITHIN 80%% ON latency <= 300%% EXEC batch=8 PICK fastest",
}

// allQueries lists every distinct query the mix can draw over refs.
func allQueries(refs []string) []string {
	out := make([]string, 0, len(refs)*len(queryShapes))
	for _, r := range refs {
		for _, s := range queryShapes {
			out = append(out, fmt.Sprintf(s, r))
		}
	}
	return out
}

// zipfS skews popularity: with s = 1.1 the most popular of 24
// references draws about 30% of all queries. Model fetches use the
// flatter (v + k)^-s law with v a quarter of the catalog, so the
// client's cache (an eighth of the catalog) hits on roughly a fifth of
// them and the median fetch is a real transfer.
const zipfS = 1.1

// picker draws Zipf-popular references, models and query shapes from
// one seeded stream; a client owns one picker, so its sequence depends
// only on the seed and the client's index.
type picker struct {
	rng    *rand.Rand
	refs   *rand.Zipf
	models *rand.Zipf
}

func newPicker(seed uint64, stream, refs, models int) *picker {
	rng := rand.New(rand.NewSource(int64(seed)*1000003 + int64(stream)))
	return &picker{
		rng:    rng,
		refs:   rand.NewZipf(rng, zipfS, 1, uint64(refs-1)),
		models: rand.NewZipf(rng, zipfS, float64(max(models/4, 1)), uint64(models-1)),
	}
}

// model draws a model index with Zipf popularity.
func (p *picker) model() int { return int(p.models.Uint64()) }

// query draws one query of the mix against a Zipf-popular reference.
func (p *picker) query(refs []string) string {
	ref := refs[p.refs.Uint64()]
	return fmt.Sprintf(queryShapes[p.rng.Intn(len(queryShapes))], ref)
}
