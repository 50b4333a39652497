// Command perfbench is the repository's benchmark. It generates its
// inputs from a seed, runs one named workload through the program's
// public API for a fixed time, checks every answer against a
// reference, and prints one JSON object as the last line of its
// output:
//
//	perfbench --workload query --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with
// --trace 1 the workload runs once untraced and once traced, and the
// object carries the per-layer metrics of the traced run. README.md in
// this directory defines every metric and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sommelier/internal/obs"
)

// setupRounds is how many times a run builds its system from empty
// repositories; setup_s is their median and the last one serves.
const setupRounds = 3

type workload struct {
	shape shape
	run   func(e *env) (*report, error)
}

var workloads = map[string]workload{
	"query":   {shape: serveShape, run: runQuery},
	"scatter": {shape: scatterShape, run: runScatter},
}

// tailP is the percentile op_tail_ms and side_tail_ms report. The p99
// rested on the host's rarest stalls and moved with them between runs
// (STEADINESS.md); the p90 has ten times the samples beyond it.
const tailP = 0.9

// env is one pass of a workload: its inputs, its scratch directory and
// its tracer (nil when untraced).
type env struct {
	ctx     context.Context
	seed    uint64
	seconds time.Duration
	work    string
	in      *inputs
	tr      *tracer
	// pass names the pass in its directories, which must never be
	// reused: a repository opened over an old one loads its models.
	pass string
	dirs int
}

// done reports whether a workload's closed loop should stop: once
// --seconds have passed and both streams support their tails, or at
// twice --seconds whatever they hold.
func (e *env) done(start time.Time, rep *report) bool {
	el := time.Since(start)
	return el >= 2*e.seconds || (el >= e.seconds &&
		rep.op.len() >= minSamples(tailP) && rep.side.len() >= minSamples(tailP))
}

// dir returns a fresh directory path under the pass's scratch space.
func (e *env) dir(name string) string {
	e.dirs++
	return filepath.Join(e.work, fmt.Sprintf("%s%s-%d", e.pass, name, e.dirs))
}

// report is what a workload pass measured.
type report struct {
	setups []setupTimes
	// models is how many models each set-up ingests.
	models int
	// storedBytes / modelBytes give stored_bytes_per_model_byte.
	storedBytes, modelBytes int64
	liveHeap                uint64
	// answers counts correct operations of the kind ops_per_s counts,
	// over busy.
	answers atomic.Int64
	busy    time.Duration
	op      samples
	side    samples
	// opLat and sideLat summarize op and side once the phase ends.
	opLat, sideLat latency

	attempted, failed atomic.Int64
	pmu               sync.Mutex
	problems          []string // guarded by pmu

	results, answered, empty atomic.Int64
	retries                  atomic.Int64
	phase                    time.Duration
	mem0, mem1               runtime.MemStats
	// snapshots holds the first SaveIndexes output per index key.
	snapshots map[string][]byte
	// nodes is the final system; observers every program observer
	// whose spans and metrics the per-layer figures read.
	nodes     []*node
	observers []*obs.Observer
}

// fail counts a failed operation and keeps the first few reasons.
func (r *report) fail(format string, args ...any) {
	r.failed.Add(1)
	r.pmu.Lock()
	if len(r.problems) < 5 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
	r.pmu.Unlock()
}

// startPhase and endPhase bracket the timed phase.
func (r *report) startPhase() time.Time {
	runtime.ReadMemStats(&r.mem0)
	return time.Now()
}

func (r *report) endPhase(start time.Time) {
	r.phase = time.Since(start)
	runtime.ReadMemStats(&r.mem1)
}

// measureHeap records the live heap after a forced collection; the
// caller keeps its engines and servers referenced across the call.
// The latency streams are summarized and released first: samples the
// benchmark holds grow with throughput and are not the program's.
func (r *report) measureHeap(e *env) {
	r.opLat = r.op.summarize("op", tailP)
	r.sideLat = r.side.summarize("side", tailP)
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.liveHeap = m.HeapAlloc
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: query or scatter")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload query|scatter, --seconds > 0, --trace 0|1\n")
		return 2
	}
	res, err := measure(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure generates the inputs, runs the workload (twice when traced)
// and assembles the result.
func measure(name string, w workload, seed uint64, seconds time.Duration, traced bool, log io.Writer) (*result, error) {
	cwd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	scratch := filepath.Join(cwd, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(scratch, "work-*")
	if err != nil {
		return nil, fmt.Errorf("scratch directory: %w", err)
	}
	defer os.RemoveAll(work)

	in, err := generate(seed, w.shape)
	if err != nil {
		return nil, err
	}
	pass := func(tr *tracer) (*report, error) {
		e := &env{ctx: context.Background(), seed: seed, seconds: seconds, work: work, in: in, tr: tr}
		if tr != nil {
			e.pass = "traced"
			defer tr.stopDrain()
		}
		rep, err := w.run(e)
		if err != nil {
			return nil, err
		}
		for _, p := range rep.problems {
			fmt.Fprintf(log, "# check failed: %s\n", p)
		}
		fmt.Fprintf(log, "# %s seed=%d traced=%v index-digest=%s setups=%d samples=%d/%d\n",
			name, seed, tr != nil, rep.indexDigest(), len(rep.setups), rep.opLat.n, rep.sideLat.n)
		return rep, nil
	}
	base, err := pass(nil)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: base.attempted.Load(),
		Failed:    base.failed.Load(),
	}
	if !traced {
		res.Metrics, err = endToEnd(base)
	} else {
		tr := newTracer()
		var rep *report
		if rep, err = pass(tr); err != nil {
			return nil, err
		}
		res.Attempted += rep.attempted.Load()
		res.Failed += rep.failed.Load()
		res.Metrics = perLayer(in, base, rep, tr)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// endToEnd computes the metrics a user of the system sees.
func endToEnd(r *report) (map[string]metric, error) {
	if len(r.setups) == 0 || r.busy <= 0 || r.modelBytes == 0 {
		return nil, fmt.Errorf("pass recorded no set-up or no timed phase")
	}
	var setup []float64
	for _, s := range r.setups {
		setup = append(setup, s.total.Seconds())
	}
	for _, l := range []latency{r.opLat, r.sideLat} {
		if l.err != nil {
			return nil, l.err
		}
	}
	return map[string]metric{
		"setup_s":                     {median(setup), "s"},
		"stored_bytes_per_model_byte": {float64(r.storedBytes) / float64(r.modelBytes), "ratio"},
		"live_heap_mb":                {float64(r.liveHeap) / 1e6, "MB"},
		"ops_per_s":                   {float64(r.answers.Load()) / r.busy.Seconds(), "1/s"},
		"op_p50_ms":                   {r.opLat.p50, "ms"},
		"op_tail_ms":                  {r.opLat.tail, "ms"},
		"side_p50_ms":                 {r.sideLat.p50, "ms"},
		"side_tail_ms":                {r.sideLat.tail, "ms"},
	}, nil
}

// sortedKeys is for deterministic iteration in tests and logs.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
