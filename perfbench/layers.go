package main

import (
	"math"
	"runtime"
	"strings"
	"time"

	"sommelier/internal/obs"
)

// perLayer computes the per-layer metrics of a traced pass. Timings of
// the program's own stages come from the Sum and Count of its obs
// histograms (never their percentiles) and from its span ring; the
// rest from the benchmark's seams. Runtime figures and the mix guards
// come from the untraced pass base, which tracing does not disturb.
func perLayer(in *inputs, base, r *report, tr *tracer) map[string]metric {
	out := make(map[string]metric)
	put := func(name, unit string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[name] = metric{Value: v, Unit: unit}
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	own := tr.records()
	// Set-up uploads are operations of their own, but not of the timed
	// phase the self.* split describes.
	setupOps := make(map[uint64]bool)
	for _, s := range own {
		if s.id == s.op && s.name == uploadOp {
			setupOps[s.op] = true
		}
	}
	var spans []spanRec
	for _, s := range own {
		if !setupOps[s.op] {
			spans = append(spans, s)
		}
	}
	var pairs []float64
	var dropped int64
	var snaps []obs.Snapshot
	for _, o := range r.observers {
		recs, lost := tr.programSpans(o)
		dropped += lost
		spans = append(spans, fold(own, recs)...)
		for _, s := range recs {
			if s.Name == "pair" {
				pairs = append(pairs, float64(s.DurNS)/1e6)
			}
		}
		snaps = append(snaps, o.Snapshot())
	}
	counter := func(name string) (n int64) {
		for _, s := range snaps {
			n += s.Counters[name]
		}
		return n
	}
	histMean := func(name string) float64 {
		var sum float64
		var count int64
		for _, s := range snaps {
			h := s.Histograms[name]
			sum += h.Sum
			count += h.Count
		}
		return ratio(sum, float64(count))
	}
	histSum := func(name string) (sum float64) {
		for _, s := range snaps {
			sum += s.Histograms[name].Sum
		}
		return sum
	}

	// Index the benchmark's own spans.
	byID := make(map[uint64]spanRec, len(own))
	roots := make(map[string]int)
	for _, s := range own {
		byID[s.id] = s
		if s.id == s.op {
			roots[s.name]++
		}
	}
	durMS := func(s spanRec) float64 { return float64(s.end-s.start) / 1e6 }
	type acc struct{ sum, n float64 }
	means := make(map[string]*acc)
	add := func(key string, v float64) {
		a := means[key]
		if a == nil {
			a = &acc{}
			means[key] = a
		}
		a.sum += v
		a.n++
	}
	spanMean := func(key string) float64 {
		if a := means[key]; a != nil {
			return ratio(a.sum, a.n)
		}
		return 0
	}
	opWired := make(map[uint64]bool)
	shardMax := make(map[uint64]float64)
	var loadsInQueries, backendCalls float64
	var uploadMS, uploadBytes, uploadTrips float64
	for _, s := range own {
		root, inOp := byID[s.op]
		switch {
		case strings.HasPrefix(s.name, "hub.server/"):
			ep := strings.TrimPrefix(s.name, "hub.server/")
			add(ep+".server", durMS(s))
			if w, ok := byID[s.parent]; ok {
				add(ep+".wire", durMS(w)-durMS(s))
			}
			if inOp && root.name == uploadOp {
				uploadMS += durMS(s)
			}
		case s.name == "hub.wire":
			opWired[s.op] = true
			if inOp && root.name == uploadOp {
				uploadTrips++
				uploadBytes += float64(s.bytes)
			}
		case s.name == "cluster.backend":
			backendCalls++
			if inOp && root.name == "single" {
				shardMax[s.op] = max(shardMax[s.op], durMS(s))
			}
		case s.name == "repo.load" && inOp && (root.name == "query" || root.name == "single"):
			loadsInQueries++
		}
		add(s.name, durMS(s))
	}
	for op, m := range shardMax {
		add("cluster.merge", durMS(byID[op])-m)
		add("cluster.shard_max", m)
	}
	var fetchHits float64
	for _, s := range own {
		if s.id == s.op && s.name == "fetch" && !opWired[s.op] {
			fetchHits++
		}
	}

	put("hub.query_server_ms", "ms", spanMean("query.server"))
	put("hub.query_wire_ms", "ms", spanMean("query.wire"))
	put("hub.fetch_server_ms", "ms", spanMean("fetch.server"))
	put("hub.fetch_wire_ms", "ms", spanMean("fetch.wire"))
	put("hub.fetch_cache_hit_ratio", "ratio", ratio(fetchHits, float64(roots["fetch"])))
	var uploads, ingested float64
	var ingest time.Duration
	for _, st := range r.setups {
		uploads += float64(st.uploads)
	}
	for _, st := range base.setups {
		ingested += float64(base.models)
		ingest += st.ingest
	}
	put("hub.upload_server_ms", "ms", ratio(uploadMS, uploads))
	put("hub.upload_bytes_per_model", "B", ratio(uploadBytes, uploads))
	put("hub.upload_round_trips_per_model", "count", ratio(uploadTrips, uploads))
	put("hub.retries", "count", float64(r.retries.Load()))
	var hubErrors int64
	for _, s := range snaps {
		for name, v := range s.Counters {
			if strings.HasPrefix(name, "hub_") && strings.HasSuffix(name, "_errors_total") {
				hubErrors += v
			}
		}
	}
	put("hub.errors", "count", float64(hubErrors))

	put("sommelier.query_ms", "ms", spanMean("sommelier.query"))
	put("sommelier.batch_ms", "ms", spanMean("sommelier.batch"))
	put("sommelier.index_model_ms", "ms", spanMean("sommelier.index"))
	put("sommelier.indexall_s", "s", spanMean("sommelier.indexall")/1e3)
	put("sommelier.ingest_models_per_s", "models/s", ratio(ingested, ingest.Seconds()))
	for _, stage := range []string{"parse", "candidates", "filter", "rank"} {
		put("sommelier.query_"+stage+"_us", "us", 1e3*histMean("query_"+stage+"_ms"))
	}
	put("sommelier.results_per_query", "count", ratio(float64(base.results.Load()), float64(base.answered.Load())))
	put("sommelier.empty_result_frac", "ratio", ratio(float64(base.empty.Load()), float64(base.answered.Load())))

	for _, stage := range []string{"plan", "analyze", "profile", "commit"} {
		put("catalog."+stage+"_ms", "ms", histMean("catalog_"+stage+"_ms"))
	}
	put("catalog.pair_tasks_per_model", "count",
		ratio(float64(counter("catalog_tasks_total")), float64(counter("catalog_models_indexed_total"))))
	var busy float64
	for _, p := range pairs {
		busy += p
	}
	put("catalog.worker_util", "ratio", ratio(busy, histSum("catalog_analyze_ms")*float64(runtime.GOMAXPROCS(0))))
	put("equiv.pair_ms", "ms", mean(pairs))

	put("repo.publish_ms", "ms", spanMean("repo.publish"))
	put("repo.load_ms", "ms", spanMean("repo.load"))
	put("repo.loads_per_query", "count", ratio(loadsInQueries, float64(roots["query"]+roots["single"])))

	var puts, hits, putBytes, chunks, semBytes, resBytes, candidates float64
	for _, n := range r.nodes {
		st := n.repo.CASStats()
		puts += float64(st.Puts)
		hits += float64(st.DedupHits)
		putBytes += float64(st.PutBytes)
		chunks += float64(st.Chunks)
		sem, res := n.eng.IndexMemoryBytes()
		semBytes += float64(sem)
		resBytes += float64(res)
		candidates += float64(n.obs.Snapshot().Gauges["catalog_semantic_candidates"])
	}
	put("cas.dedup_hit_ratio", "ratio", ratio(hits, puts))
	put("cas.put_bytes_per_user_byte", "ratio", ratio(putBytes, float64(r.modelBytes)))
	put("cas.chunks", "count", chunks)
	put("index.semantic_bytes", "B", semBytes)
	put("index.resource_bytes", "B", resBytes)
	put("index.semantic_candidates", "count", candidates)

	queries := float64(roots["single"] + batchSize*roots["batch"])
	put("cluster.coord_ms", "ms", spanMean("single"))
	put("cluster.shard_max_ms", "ms", spanMean("cluster.shard_max"))
	put("cluster.merge_ms", "ms", spanMean("cluster.merge"))
	put("cluster.backend_calls_per_query", "count", ratio(backendCalls, queries))
	put("cluster.failovers", "count", float64(counter("cluster_failovers_total")))
	put("cluster.degraded", "count", float64(counter("cluster_degraded_queries")))

	gcs := float64(base.mem1.NumGC - base.mem0.NumGC)
	put("runtime.alloc_bytes_per_op", "B", ratio(float64(base.mem1.TotalAlloc-base.mem0.TotalAlloc), float64(base.attempted.Load())))
	put("runtime.gc_cycles_per_s", "1/s", ratio(gcs, base.phase.Seconds()))
	put("runtime.gc_pause_ms", "ms", ratio(float64(base.mem1.PauseTotalNs-base.mem0.PauseTotalNs)/1e6, gcs))

	b := selfTimes(spans)
	for l := layer(0); l < numLayers; l++ {
		put("self."+layerNames[l]+"_ms", "ms", ratio(b.self[l], float64(b.ops))/1e6)
	}
	put("self.total_ms", "ms", ratio(b.total, float64(b.ops))/1e6)

	put("bench.gen_s", "s", in.genTime.Seconds())
	put("bench.trace_overhead_frac", "ratio",
		1-ratio(ratio(float64(r.answers.Load()), r.busy.Seconds()), ratio(float64(base.answers.Load()), base.busy.Seconds())))
	attempted := base.attempted.Load() + r.attempted.Load()
	put("bench.failed_frac", "ratio", ratio(float64(base.failed.Load()+r.failed.Load()), float64(attempted)))
	put("bench.trace_dropped_spans", "count", float64(dropped))
	return out
}
