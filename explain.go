package sommelier

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// StageTiming is one pipeline stage's measured duration, as recorded by
// the engine's tracer. Under a deterministic clock (obs.TickClock) the
// values are reproducible run to run.
type StageTiming struct {
	Stage  string  `json:"stage"`
	Millis float64 `json:"ms"`
}

// Explanation reports what each stage of the §5.4 filter pipeline did for
// one query — the introspection behind the paper's framing of Sommelier
// as an "explanation database for DNNs": not just which model was chosen,
// but why the others were not. The query pipeline fills it in as it
// runs, so it describes the very execution that produced Results.
//
// Every stage-1 candidate is accounted for once: returned (before
// LIMIT), rejected by at least one constraint, dropped by the LSH
// prefilter although it meets every constraint, or without a profile.
type Explanation struct {
	Query     string
	Reference string
	// SemanticCandidates is the stage-1 output size (candidates at or
	// above the threshold).
	SemanticCandidates int
	// SemanticRejected counts indexed models below the threshold.
	SemanticRejected int
	// ResourceRejected counts stage-1 survivors that failed a resource
	// constraint, per constraint. A candidate failing two constraints
	// counts under both.
	ResourceRejected map[string]int
	// PrefilterDropped counts stage-1 survivors the approximate LSH
	// resource prefilter dropped although they meet every constraint.
	PrefilterDropped int
	// NoProfile counts stage-1 survivors skipped for lacking a resource
	// profile.
	NoProfile int
	// Returned is the final result count after selection and LIMIT.
	Returned int
	// Results carries the final results for convenience.
	Results []Result
	// Stages holds the per-stage query span durations (parse,
	// candidates, filter, rank) in execution order.
	Stages []StageTiming
}

// String renders a human-readable explanation.
func (e *Explanation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "query: %s\n", e.Query)
	fmt.Fprintf(&b, "reference: %s\n", e.Reference)
	fmt.Fprintf(&b, "stage 1 (semantic): %d candidates pass, %d below threshold\n",
		e.SemanticCandidates, e.SemanticRejected)
	if len(e.ResourceRejected) == 0 {
		b.WriteString("stage 2 (resource): no constraints\n")
	} else {
		b.WriteString("stage 2 (resource):\n")
		keys := make([]string, 0, len(e.ResourceRejected))
		for k := range e.ResourceRejected {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, "  %s rejected %d candidates\n", k, e.ResourceRejected[k])
		}
	}
	if e.PrefilterDropped > 0 {
		fmt.Fprintf(&b, "  LSH prefilter dropped %d candidates meeting every constraint\n", e.PrefilterDropped)
	}
	if e.NoProfile > 0 {
		fmt.Fprintf(&b, "  %d candidates skipped without a resource profile\n", e.NoProfile)
	}
	fmt.Fprintf(&b, "stage 3 (selection): %d returned\n", e.Returned)
	if len(e.Stages) > 0 {
		b.WriteString("timings:\n")
		for _, s := range e.Stages {
			fmt.Fprintf(&b, "  %s: %.3fms\n", s.Stage, s.Millis)
		}
	}
	return b.String()
}

// ExplainContext runs the query through the same pipeline as
// QueryContext while recording per-stage filtering decisions and
// per-stage span durations. It returns the results QueryContext would,
// plus the explanation.
func (e *Engine) ExplainContext(ctx context.Context, q string) (*Explanation, error) {
	ctx, root := e.obs.StartSpan(ctx, "explain", "")
	defer func() { e.obs.Histogram("query_total_ms").Observe(root.End()) }()
	exp := &Explanation{ResourceRejected: make(map[string]int)}
	ast, err := e.parse(ctx, q, exp)
	if err != nil {
		return nil, err
	}
	exp.Query = ast.String()
	// Seed every constraint so zero-rejection constraints still appear
	// in the report (distinct from "no constraints at all").
	for _, con := range ast.Constraints {
		exp.ResourceRejected[con.String()] = 0
	}
	if exp.Results, err = e.queryAST(ctx, ast, exp); err != nil {
		return nil, err
	}
	exp.Returned = len(exp.Results)
	return exp, nil
}
