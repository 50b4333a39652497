package sommelier

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestExplainStages(t *testing.T) {
	ctx := context.Background()
	eng, refID, _ := newEngineWithLadder(t, false)
	for _, tc := range []struct {
		name string
		q    string
		// distantRejected: the distant variant fails the threshold.
		distantRejected bool
	}{
		{"threshold and budget",
			`SELECT CORR "` + refID + `" WITHIN 85% ON memory <= 120% PICK most_similar`, true},
		// EXEC re-profiles the candidates AND the reference, so the
		// relative budget is judged against the reference's EXEC
		// profile, exactly as QueryContext judges it.
		{"exec reprofile",
			`SELECT CORR "` + refID + `" WITHIN 50% ON memory <= 100% EXEC batch=8 PICK smallest`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			exp, err := eng.ExplainContext(ctx, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if exp.Reference != refID {
				t.Fatalf("reference = %q", exp.Reference)
			}
			// 4 indexed candidates besides the reference.
			if exp.SemanticCandidates+exp.SemanticRejected != 4 {
				t.Fatalf("semantic accounting wrong: %d + %d", exp.SemanticCandidates, exp.SemanticRejected)
			}
			if tc.distantRejected && exp.SemanticRejected == 0 {
				t.Fatal("the distant variant should fail the threshold")
			}
			if exp.Returned != len(exp.Results) {
				t.Fatalf("returned count mismatch: %d vs %d", exp.Returned, len(exp.Results))
			}
			// Results must agree with the plain query path exactly.
			direct, err := eng.QueryContext(ctx, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(exp.Results, direct) {
				t.Fatalf("Explain results diverge from Query:\n explain %+v\n query   %+v", exp.Results, direct)
			}
			s := exp.String()
			for _, want := range []string{"stage 1", "stage 2", "stage 3", refID} {
				if !strings.Contains(s, want) {
					t.Fatalf("explanation missing %q:\n%s", want, s)
				}
			}
		})
	}
}

func TestExplainResourceRejections(t *testing.T) {
	ctx := context.Background()
	eng, refID, _ := newEngineWithLadder(t, false)
	// A tiny memory budget rejects everything.
	exp, err := eng.ExplainContext(ctx, `SELECT CORR "`+refID+`" WITHIN 10% ON memory <= 1% PICK most_similar`)
	if err != nil {
		t.Fatal(err)
	}
	if exp.Returned != 0 {
		t.Fatalf("returned %d under impossible budget", exp.Returned)
	}
	rejected := 0
	for _, n := range exp.ResourceRejected {
		rejected += n
	}
	if rejected != exp.SemanticCandidates {
		t.Fatalf("every semantic survivor should be resource-rejected: %d vs %d",
			rejected, exp.SemanticCandidates)
	}
	if !strings.Contains(exp.String(), "rejected") {
		t.Fatal("explanation should list rejections")
	}
}

func TestExplainErrors(t *testing.T) {
	ctx := context.Background()
	eng, refID, _ := newEngineWithLadder(t, false)
	if _, err := eng.ExplainContext(ctx, `garbage`); err == nil {
		t.Fatal("expected parse error")
	}
	if _, err := eng.ExplainContext(ctx, `SELECT CORR ghost@1`); err == nil {
		t.Fatal("expected unknown-reference error")
	}
	if _, err := eng.ExplainContext(ctx, `SELECT TASK nosuch`); err == nil {
		t.Fatal("expected no-default error")
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := eng.ExplainContext(cancelled, `SELECT CORR "`+refID+`" WITHIN 10% PICK most_similar`); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
	}
}
