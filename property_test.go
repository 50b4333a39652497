package sommelier

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"sommelier/internal/catalog"
	"sommelier/internal/query"
	"sommelier/internal/repo"
)

// The engine's core contract, checked over generated queries: every
// returned result satisfies the semantic threshold AND every resource
// constraint, results are sorted by the PICK criterion, and LIMIT is
// respected. One shared engine keeps the property check fast.
func TestPropertyQueryContract(t *testing.T) {
	ctx := context.Background()
	eng, refID, _ := newEngineWithLadder(t, false)
	refProf, ok := eng.Profile(refID)
	if !ok {
		t.Fatal("reference profile missing")
	}

	picks := []query.PickKind{
		query.PickMostSimilar, query.PickSmallest,
		query.PickFastest, query.PickCheapest, query.PickAll,
	}
	f := func(thrRaw uint8, memRaw uint16, flopsRaw uint16, pickRaw, limRaw uint8) bool {
		threshold := float64(thrRaw%101) / 100
		memPct := 10 + float64(memRaw%400)
		flopsPct := 10 + float64(flopsRaw%400)
		pick := picks[int(pickRaw)%len(picks)]
		limit := int(limRaw % 5)

		q := &query.Query{
			Ref:       refID,
			Threshold: threshold,
			Constraints: []query.Constraint{
				{Metric: query.MetricMemory, Op: query.OpLE, Value: memPct, Unit: query.UnitRelative},
				{Metric: query.MetricFLOPs, Op: query.OpLE, Value: flopsPct, Unit: query.UnitRelative},
			},
			Pick:  pick,
			Limit: limit,
		}
		results, err := eng.QueryASTContext(ctx, q)
		if err != nil {
			t.Logf("query error: %v", err)
			return false
		}
		if limit > 0 && len(results) > limit {
			return false
		}
		memCap := memPct / 100 * float64(refProf.MemoryBytes)
		flopsCap := flopsPct / 100 * float64(refProf.FLOPs)
		for i, r := range results {
			if r.Level < threshold {
				return false
			}
			if float64(r.Profile.MemoryBytes) > memCap || float64(r.Profile.FLOPs) > flopsCap {
				return false
			}
			if i == 0 {
				continue
			}
			prev := results[i-1]
			switch pick {
			case query.PickMostSimilar, query.PickAll:
				if r.Level > prev.Level {
					return false
				}
			case query.PickSmallest:
				if r.Profile.MemoryBytes < prev.Profile.MemoryBytes {
					return false
				}
			case query.PickFastest:
				if r.Profile.LatencyMS < prev.Profile.LatencyMS {
					return false
				}
			case query.PickCheapest:
				if r.Profile.FLOPs < prev.Profile.FLOPs {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Every entry into the query pipeline must agree on generated queries:
// QueryContext, QueryASTContext, ExplainContext and the matching slot
// of a QueryBatchContext batch at every worker count return identical
// results. The queries mix upper and lower bounds, EXEC re-profiling,
// every PICK kind and LIMIT 0–4. For LIMIT-0 queries the explanation
// must also account for every stage-1 candidate exactly once.
func TestPropertyQueryStringEquivalence(t *testing.T) {
	ctx := context.Background()
	store := repo.NewInMemory()
	eng, refID := newLadderOverStore(t, store)
	picks := []query.PickKind{
		query.PickMostSimilar, query.PickSmallest,
		query.PickFastest, query.PickCheapest, query.PickAll,
	}
	var qs []string
	var want [][]Result
	f := func(thrRaw uint8, memRaw, floorRaw uint16, batchRaw, pickRaw, limRaw uint8) bool {
		q := fmt.Sprintf("SELECT CORR %q WITHIN %d%% ON memory <= %d%% AND flops >= %d%%",
			refID, thrRaw%101, 10+memRaw%300, floorRaw%150)
		if b := batchRaw % 3; b > 0 {
			q += fmt.Sprintf(" EXEC batch=%d", 4*b)
		}
		q += fmt.Sprintf(" PICK %s LIMIT %d", picks[int(pickRaw)%len(picks)], limRaw%5)
		viaString, err := eng.QueryContext(ctx, q)
		if err != nil {
			t.Logf("%s: %v", q, err)
			return false
		}
		ast, err := query.Parse(q)
		if err != nil {
			return false
		}
		viaAST, err := eng.QueryASTContext(ctx, ast)
		if err != nil || !reflect.DeepEqual(viaAST, viaString) {
			t.Logf("%s: QueryAST diverges (%v)", q, err)
			return false
		}
		exp, err := eng.ExplainContext(ctx, q)
		if err != nil || !reflect.DeepEqual(exp.Results, viaString) {
			t.Logf("%s: Explain diverges (%v)", q, err)
			return false
		}
		if ast.Limit == 0 && !explanationAccountsForAll(t, eng, ast, exp) {
			t.Logf("%s: explanation accounting:\n%s", q, exp)
			return false
		}
		qs = append(qs, q)
		want = append(want, viaString)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}

	// The batch slots, at every worker count, over the same index state
	// restored through the persistence path.
	var snap bytes.Buffer
	if err := eng.SaveIndexes(&snap); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		eng2, err := NewEngine(store, WithSeed(11), WithValidationSize(250), WithQueryWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng2.LoadIndexes(bytes.NewReader(snap.Bytes())); err != nil {
			t.Fatal(err)
		}
		results, errs := eng2.QueryBatchContext(ctx, qs)
		for i := range qs {
			if errs[i] != nil || !reflect.DeepEqual(results[i], want[i]) {
				t.Fatalf("workers=%d slot %d %s: batch %+v (err %v), query %+v",
					workers, i, qs[i], results[i], errs[i], want[i])
			}
		}
	}
}

// explanationAccountsForAll checks that each stage-1 candidate of a
// LIMIT-less query lands in exactly one of the explanation's buckets:
// returned, dropped by the prefilter, missing a profile, or failing at
// least one constraint. The failing count is recomputed independently
// from the same query without constraints, whose results are the
// stage-1 candidates with the profiles the pipeline judges them by.
func explanationAccountsForAll(t *testing.T, eng *Engine, q *query.Query, exp *Explanation) bool {
	ctx := context.Background()
	refProf, _ := eng.Profile(exp.Reference)
	setting, reprofile, err := execSetting(q.Exec)
	if err != nil {
		t.Log(err)
		return false
	}
	if reprofile {
		if refProf, err = eng.reprofile(exp.Reference, setting, catalog.NewReprofileMemo()); err != nil {
			t.Log(err)
			return false
		}
	}
	all := *q
	all.Constraints, all.Pick = nil, query.PickAll
	cands, err := eng.QueryASTContext(ctx, &all)
	if err != nil {
		t.Log(err)
		return false
	}
	failing := 0
	for _, c := range cands {
		keep, err := exactlySatisfies(q.Constraints, c.Profile, refProf)
		if err != nil {
			t.Log(err)
			return false
		}
		if !keep {
			failing++
		}
	}
	return exp.SemanticCandidates == len(cands)+exp.NoProfile &&
		exp.SemanticCandidates == exp.Returned+exp.PrefilterDropped+exp.NoProfile+failing
}
