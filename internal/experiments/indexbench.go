package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"sommelier"
	"sommelier/internal/repo"
	"sommelier/internal/zoo"
)

// IndexBenchConfig scales the parallel-indexing benchmark: how fast the
// staged catalog pipeline ingests a zoo catalog with N workers versus
// one, and whether the two runs commit byte-identical indexes.
type IndexBenchConfig struct {
	// Series/PerSeries/Trunks shape the synthesized catalog
	// (Series × PerSeries models).
	Series    int
	PerSeries int
	Trunks    int
	// Workers is the parallel run's worker count (0 = GOMAXPROCS).
	Workers int
	// ValidationSize is the probe dataset size per shape.
	ValidationSize int
	Seed           uint64
}

// DefaultIndexBenchConfig indexes a 24-model catalog.
func DefaultIndexBenchConfig() IndexBenchConfig {
	return IndexBenchConfig{Series: 6, PerSeries: 4, Trunks: 3, ValidationSize: 200, Seed: 2022}
}

// IndexBenchResult reports serial-vs-parallel IndexAll over the same
// model population. The JSON form is what `make bench` writes to
// BENCH_index.json.
type IndexBenchResult struct {
	Models             int     `json:"models"`
	Workers            int     `json:"workers"`
	SerialMS           float64 `json:"serial_ms"`
	ParallelMS         float64 `json:"parallel_ms"`
	SerialModelsPerSec float64 `json:"serial_models_per_sec"`
	ParModelsPerSec    float64 `json:"parallel_models_per_sec"`
	Speedup            float64 `json:"speedup"`
	IdenticalSnapshots bool    `json:"identical_snapshots"`
}

// RunIndexBench builds one zoo catalog, publishes it into two fresh
// repositories, and runs IndexAll once with a single worker and once
// with cfg.Workers. Both engines share a seed, so the committed indexes
// must serialize to identical bytes — the determinism contract of the
// staged pipeline — which the result records alongside the timings.
func RunIndexBench(ctx context.Context, cfg IndexBenchConfig) (*IndexBenchResult, error) {
	if cfg.Series <= 0 {
		cfg = DefaultIndexBenchConfig()
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	series, err := zoo.Catalog(zoo.CatalogConfig{
		NumSeries:    cfg.Series,
		MinPerSeries: cfg.PerSeries,
		MaxPerSeries: cfg.PerSeries,
		NumTrunks:    cfg.Trunks,
		Seed:         cfg.Seed,
	})
	if err != nil {
		return nil, err
	}

	run := func(w int) (int, time.Duration, []byte, error) {
		store := repo.NewInMemory()
		for _, s := range series {
			for _, m := range s.Models {
				if _, err := store.Publish(m); err != nil {
					return 0, 0, nil, err
				}
			}
		}
		eng, err := sommelier.NewEngine(store,
			sommelier.WithSeed(cfg.Seed),
			sommelier.WithValidationSize(cfg.ValidationSize),
			sommelier.WithIndexWorkers(w),
		)
		if err != nil {
			return 0, 0, nil, err
		}
		start := time.Now()
		if err := eng.IndexAllContext(ctx); err != nil {
			return 0, 0, nil, err
		}
		elapsed := time.Since(start)
		var buf bytes.Buffer
		if err := eng.SaveIndexes(&buf); err != nil {
			return 0, 0, nil, err
		}
		return eng.IndexedLen(), elapsed, buf.Bytes(), nil
	}

	nSerial, serialDur, serialSnap, err := run(1)
	if err != nil {
		return nil, fmt.Errorf("serial run: %w", err)
	}
	nPar, parDur, parSnap, err := run(workers)
	if err != nil {
		return nil, fmt.Errorf("parallel run: %w", err)
	}
	if nSerial != nPar {
		return nil, fmt.Errorf("serial indexed %d models, parallel %d", nSerial, nPar)
	}

	res := &IndexBenchResult{
		Models:             nSerial,
		Workers:            workers,
		SerialMS:           float64(serialDur.Microseconds()) / 1e3,
		ParallelMS:         float64(parDur.Microseconds()) / 1e3,
		IdenticalSnapshots: bytes.Equal(serialSnap, parSnap),
	}
	if serialDur > 0 {
		res.SerialModelsPerSec = float64(nSerial) / serialDur.Seconds()
	}
	if parDur > 0 {
		res.ParModelsPerSec = float64(nPar) / parDur.Seconds()
		res.Speedup = serialDur.Seconds() / parDur.Seconds()
	}
	return res, nil
}

// Report renders the paper-style summary block.
func (r *IndexBenchResult) Report() Report {
	rep := Report{
		ID:    "indexbench",
		Title: "parallel catalog indexing: staged pipeline vs serial",
	}
	rep.Lines = append(rep.Lines,
		line("models indexed:      %d", r.Models),
		line("serial (1 worker):   %8.1f ms  (%.2f models/s)", r.SerialMS, r.SerialModelsPerSec),
		line("parallel (%2d):       %8.1f ms  (%.2f models/s)", r.Workers, r.ParallelMS, r.ParModelsPerSec),
		line("speedup:             %.2fx", r.Speedup),
		line("identical snapshots: %v", r.IdenticalSnapshots),
	)
	return rep
}
