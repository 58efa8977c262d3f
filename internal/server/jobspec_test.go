package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"sqlbarber/internal/engine"
)

func TestNormalizeDefaults(t *testing.T) {
	var r JobRequest
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize(zero) = %v", err)
	}
	if r.Dataset != "tpch" || r.ScaleFactor != 0.05 || r.Seed != 1 {
		t.Fatalf("dataset defaults wrong: %+v", r)
	}
	if r.CostKind != "cardinality" || r.kind != engine.Cardinality {
		t.Fatalf("cost kind defaults wrong: %+v", r)
	}
	if r.Distribution != "uniform" || r.Queries != 100 || r.Intervals != 8 || r.RangeHi != 2500 {
		t.Fatalf("target defaults wrong: %+v", r)
	}
	if r.Parallel != 1 || r.Format != "sql" {
		t.Fatalf("run defaults wrong: %+v", r)
	}
	if len(r.specs) == 0 {
		t.Fatalf("normalize left specs empty; want Redset-derived defaults")
	}
	if r.policy != nil {
		t.Fatalf("normalize invented a resilience policy: %+v", r.policy)
	}
	if r.tgt == nil {
		t.Fatalf("normalize left the target nil")
	}
}

func TestNormalizeParsesSpecsAndPolicy(t *testing.T) {
	specsJSON, err := json.Marshal([]map[string]any{
		{"template_id": 1, "num_joins": 1, "num_aggregations": 1},
		{"template_id": 2, "num_joins": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := JobRequest{
		Specs:      specsJSON,
		Resilience: "retry=3,backoff=10ms",
		CostKind:   "plancost",
		Format:     "JSON",
	}
	if err := r.normalize(); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if len(r.specs) != 2 {
		t.Fatalf("parsed %d specs, want 2", len(r.specs))
	}
	if r.policy == nil || r.policy.Retry.MaxAttempts != 3 {
		t.Fatalf("policy not parsed: %+v", r.policy)
	}
	if r.kind != engine.PlanCost {
		t.Fatalf("kind = %v, want PlanCost", r.kind)
	}
	if r.Format != "json" || r.artifactName("job-1") != "job-1.json" || r.contentType() != "application/json" {
		t.Fatalf("format handling wrong: %+v", r)
	}
}

func TestNormalizeRejections(t *testing.T) {
	cases := map[string]JobRequest{
		"dataset":      {Dataset: "mysql"},
		"scale factor": {ScaleFactor: 3},
		"neg sf":       {ScaleFactor: -1},
		"cost kind":    {CostKind: "watts"},
		"distribution": {Distribution: "pareto"},
		"queries":      {Queries: -1},
		"intervals":    {Intervals: 10000},
		"range":        {RangeHi: -5},
		"parallel":     {Parallel: 100},
		"profile":      {ProfileFraction: 2},
		"format":       {Format: "csv"},
		"specs":        {Specs: json.RawMessage(`{"oops"`)},
		"policy":       {Resilience: "retry=never"},
	}
	for name, r := range cases {
		if err := r.normalize(); !errors.Is(err, ErrBadJobRequest) {
			t.Errorf("%s: normalize = %v, want ErrBadJobRequest", name, err)
		}
	}
}

func TestEveryDistributionBuildsATarget(t *testing.T) {
	for _, dist := range []string{"uniform", "normal", "snowset-card", "snowset-cost", "redset"} {
		r := JobRequest{Distribution: dist}
		if err := r.normalize(); err != nil {
			t.Fatalf("%s: normalize: %v", dist, err)
		}
		tgt := r.tgt
		if tgt == nil {
			t.Fatalf("%s: normalize left the target nil", dist)
		}
		total := 0
		for _, c := range tgt.Counts {
			total += c
		}
		if total == 0 {
			t.Errorf("%s: target has zero total count", dist)
		}
	}
}

// TestNormalizeRejectsDegenerateTargets: a subnormal range_hi drives the
// lognormal weights to NaN. normalize must answer within a deadline. It may
// accept a target only if the target is well formed, and must reject every
// NaN-weighted one with ErrBadJobRequest. The interval counts matter: at 8
// intervals the old code returned counts of about -2^63, at 7 it spun in
// FromWeights about 2^63 times.
func TestNormalizeRejectsDegenerateTargets(t *testing.T) {
	nanWeighted := map[string]bool{"snowset-card": true, "snowset-cost": true, "redset": true}
	for _, dist := range []string{"uniform", "normal", "snowset-card", "snowset-cost", "redset"} {
		for _, intervals := range []int{7, 8} {
			t.Run(fmt.Sprintf("%s/%d", dist, intervals), func(t *testing.T) {
				r := JobRequest{Distribution: dist, Intervals: intervals, RangeHi: 1e-310}
				done := make(chan error, 1)
				go func() { done <- r.normalize() }()
				var err error
				select {
				case err = <-done:
				case <-time.After(5 * time.Second):
					t.Fatal("normalize did not return within 5s")
				}
				switch {
				case err == nil && nanWeighted[dist]:
					t.Fatalf("normalize accepted a NaN-weighted target: %v", r.tgt.Counts)
				case err == nil:
					if cerr := r.tgt.Check(r.Queries); cerr != nil {
						t.Fatalf("normalize accepted a bad target: %v", cerr)
					}
				case !errors.Is(err, ErrBadJobRequest):
					t.Fatalf("normalize = %v, want ErrBadJobRequest", err)
				}
			})
		}
	}
}
