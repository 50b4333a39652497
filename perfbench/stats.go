package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail estimate resting on fewer is noise.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of samples by nearest
// rank over the raw values. Histogram percentiles are never used: the
// obs histograms' first bucket ends at 10 µs, above most query stages.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// supported reports whether n samples leave at least minBeyond above
// the p-quantile's rank.
func supported(n int, p float64) bool {
	return n-int(math.Ceil(p*float64(n))) >= minBeyond
}

// minSamples is the smallest n that supports the p-quantile.
func minSamples(p float64) int {
	n := 1
	for !supported(n, p) {
		n++
	}
	return n
}

func errNotEnough(what string, n, need int) error {
	return fmt.Errorf("%d %s cannot support the reported percentile (need %d)", n, what, need)
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// samples is one latency stream of a workload's client.
type samples struct {
	mu sync.Mutex
	ms []float64 // guarded by mu
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.ms = append(s.ms, ms(d))
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.ms...)
}

func (s *samples) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ms)
}

// latency summarizes one stream for the end-to-end metrics.
type latency struct {
	n         int
	p50, tail float64
	err       error // the stream cannot support its tail percentile
}

// summarize computes the stream's median and tail over the whole timed
// phase and then drops the raw samples, so they do not count in the
// live heap. Pooling the whole phase averages over the host's speed,
// which drifts over tens of seconds; a median of per-window figures
// would instead pick whichever speed held longest.
func (s *samples) summarize(name string, p float64) latency {
	xs := s.values()
	l := latency{n: len(xs)}
	if !supported(len(xs), p) {
		l.err = fmt.Errorf("%s: %w", name, errNotEnough("samples", len(xs), minSamples(p)))
	} else {
		l.p50, l.tail = percentile(xs, 0.5), percentile(xs, p)
	}
	s.mu.Lock()
	s.ms = nil
	s.mu.Unlock()
	return l
}
