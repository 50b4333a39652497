// Command sommbench regenerates every table and figure from the paper's
// evaluation (§7) plus the ablation studies DESIGN.md calls out, printing
// paper-style rows. Run all experiments:
//
//	sommbench
//
// or a subset:
//
//	sommbench -exp fig9a,fig9c,table3
//
// Scale knobs:
//
//	sommbench -exp table2 -table2scale 0.25   # closer to paper model sizes
//	sommbench -exp fig13 -fig13full           # the full 30-series catalog
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sommelier/internal/experiments"
	"sommelier/internal/zoo"
)

type runner struct {
	id  string
	run func() (fmt.Stringer, error)
}

func main() {
	var (
		expFlag     = flag.String("exp", "all", "comma-separated experiment ids (fig3,fig9a,fig9b,fig9c,fig10,fig11,fig12a,fig12b,fig13,table1,table2,table3,table4,ablations,indexbench,querybench,clusterbench,storebench,servebench) or 'all'")
		indexOut    = flag.String("index-out", "", "write the indexbench result as JSON to this file")
		queryOut    = flag.String("query-out", "", "write the querybench result as JSON to this file")
		clusterOut  = flag.String("cluster-out", "", "write the clusterbench result as JSON to this file")
		storeOut    = flag.String("store-out", "", "write the storebench result as JSON to this file")
		servingOut  = flag.String("serving-out", "", "write the servebench result as JSON to this file")
		table2Scale = flag.Float64("table2scale", 0.02, "fraction of the paper's model sizes for table2 (1.0 = full 62M..340M parameters)")
		fig13Full   = flag.Bool("fig13full", false, "run fig13 on the full 30-series/163-model catalog")
		seed        = flag.Uint64("seed", 2022, "base random seed")
	)
	flag.Parse()
	ctx := context.Background()

	runners := []runner{
		{"fig3", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig3Config()
			cfg.Seed = *seed
			r, err := experiments.RunFig3(cfg)
			return report(r, err)
		}},
		{"fig9a", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9aConfig()
			cfg.Seed = *seed
			r, err := experiments.RunFig9a(ctx, cfg)
			return report(r, err)
		}},
		{"fig9b", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9bConfig()
			cfg.Seed = *seed
			r, err := experiments.RunFig9b(ctx, cfg)
			return report(r, err)
		}},
		{"fig9c", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig9cConfig()
			cfg.Seed = *seed
			r, err := experiments.RunFig9c(ctx, cfg)
			return report(r, err)
		}},
		{"fig10", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig10Config()
			cfg.Seed = *seed
			r, err := experiments.RunFig10(cfg)
			return report(r, err)
		}},
		{"fig11", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig11Config()
			cfg.Seed = *seed
			r, err := experiments.RunFig11(cfg)
			return report(r, err)
		}},
		{"fig12a", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig12aConfig()
			cfg.Seed = *seed
			r, err := experiments.RunFig12a(cfg)
			return report(r, err)
		}},
		{"fig12b", func() (fmt.Stringer, error) {
			r, err := experiments.RunFig12b(ctx, experiments.Fig12bConfig{Seed: *seed})
			return report(r, err)
		}},
		{"fig13", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultFig13Config()
			cfg.Seed = *seed
			if *fig13Full {
				cfg.Catalog = zoo.DefaultCatalogConfig()
				cfg.SeriesCounts = []int{5, 10, 15, 20, 25, 30}
				cfg.Repeats = 5
			}
			r, err := experiments.RunFig13(ctx, cfg)
			return report(r, err)
		}},
		{"table1", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultTable1Config()
			cfg.Seed = *seed
			r, err := experiments.RunTable1(cfg)
			return report(r, err)
		}},
		{"table2", func() (fmt.Stringer, error) {
			r, err := experiments.RunTable2(experiments.Table2Config{Scale: *table2Scale, Seed: *seed})
			return report(r, err)
		}},
		{"table3", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultTable3Config()
			cfg.Seed = *seed
			r, err := experiments.RunTable3(cfg)
			return report(r, err)
		}},
		{"table4", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultTable4Config()
			cfg.Seed = *seed
			r, err := experiments.RunTable4(cfg)
			return report(r, err)
		}},
		{"indexbench", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultIndexBenchConfig()
			cfg.Seed = *seed
			r, err := experiments.RunIndexBench(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if *indexOut != "" {
				data, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*indexOut, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s\n", *indexOut)
			}
			return r.Report(), nil
		}},
		{"querybench", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultQueryBenchConfig()
			cfg.Seed = *seed
			r, err := experiments.RunQueryBench(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if *queryOut != "" {
				data, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*queryOut, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s\n", *queryOut)
			}
			return r.Report(), nil
		}},
		{"clusterbench", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultClusterBenchConfig()
			cfg.Seed = *seed
			r, err := experiments.RunClusterBench(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if *clusterOut != "" {
				data, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*clusterOut, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s\n", *clusterOut)
			}
			return r.Report(), nil
		}},
		{"storebench", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultStoreBenchConfig()
			cfg.Seed = *seed
			r, err := experiments.RunStoreBench(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if *storeOut != "" {
				data, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*storeOut, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s\n", *storeOut)
			}
			return r.Report(), nil
		}},
		{"servebench", func() (fmt.Stringer, error) {
			cfg := experiments.DefaultServeBenchConfig()
			cfg.Seed = *seed
			r, err := experiments.RunServeBench(ctx, cfg)
			if err != nil {
				return nil, err
			}
			if *servingOut != "" {
				data, err := json.MarshalIndent(r, "", "  ")
				if err != nil {
					return nil, err
				}
				if err := os.WriteFile(*servingOut, append(data, '\n'), 0o644); err != nil {
					return nil, err
				}
				fmt.Printf("wrote %s\n", *servingOut)
			}
			return r.Report(), nil
		}},
		{"ablations", func() (fmt.Stringer, error) {
			var out multiReport
			b, err := experiments.RunAblationBound(*seed)
			if err != nil {
				return nil, err
			}
			out = append(out, b.Report())
			s, err := experiments.RunAblationSampling(ctx, *seed)
			if err != nil {
				return nil, err
			}
			out = append(out, s.Report())
			l, err := experiments.RunAblationLSH(*seed)
			if err != nil {
				return nil, err
			}
			out = append(out, l.Report())
			g, err := experiments.RunAblationSegment(*seed)
			if err != nil {
				return nil, err
			}
			out = append(out, g.Report())
			c, err := experiments.RunAblationSwitchCost(*seed)
			if err != nil {
				return nil, err
			}
			out = append(out, c.Report())
			return out, nil
		}},
	}

	want := map[string]bool{}
	all := *expFlag == "all"
	for _, id := range strings.Split(*expFlag, ",") {
		want[strings.TrimSpace(id)] = true
	}

	failed := false
	for _, r := range runners {
		if !all && !want[r.id] {
			continue
		}
		start := time.Now()
		rep, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", r.id, err)
			failed = true
			continue
		}
		fmt.Println(rep.String())
		fmt.Printf("-- %s completed in %s --\n\n", r.id, time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}

// reporter is any experiment result that renders a Report.
type reporter interface{ Report() experiments.Report }

func report(r reporter, err error) (fmt.Stringer, error) {
	if err != nil {
		return nil, err
	}
	return r.Report(), nil
}

type multiReport []experiments.Report

func (m multiReport) String() string {
	var b strings.Builder
	for _, r := range m {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
