package core

import (
	"fmt"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

func TestCandidatePlansStaticFirst(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("candidate space has %d plans; want the static pick plus variants", len(cands))
	}
	static, err := ChooseWorkload(wl, numa.Local2, ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if cands[0].ModelRep != static.ModelRep || cands[0].Access != static.Access || cands[0].DataRep != static.DataRep {
		t.Fatalf("candidate 0 = %v, want the static choice %v", cands[0], static)
	}
	seen := map[string]bool{}
	for _, p := range cands {
		if err := validatePlanFor(wl, p); err != nil {
			t.Errorf("candidate %v does not validate: %v", p, err)
		}
		k := fmt.Sprintf("%v/%d", p, p.StealChunk)
		if seen[k] {
			t.Errorf("duplicate candidate %v", p)
		}
		seen[k] = true
	}
}

func TestCandidatePlansParallelVariesStealChunk(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	cands, err := CandidatePlans(wl, numa.Local2, ExecParallel)
	if err != nil {
		t.Fatal(err)
	}
	chunks := map[int]bool{}
	for _, p := range cands {
		if p.Access != model.RowWise {
			t.Fatalf("parallel candidate %v is not row-wise", p)
		}
		chunks[p.StealChunk] = true
	}
	if len(chunks) < 3 {
		t.Fatalf("parallel candidates cover steal chunks %v; want at least 3 granularities", chunks)
	}
}

func TestChoosePlanModelStaticPrior(t *testing.T) {
	wl := NewGLM(model.NewSVM(), data.Reuters())
	dec, err := ChoosePlanModel(wl, numa.Local2, ExecSimulated, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Source != "static" {
		t.Fatalf("Source = %q with no cost model, want static", dec.Source)
	}
	static, _ := ChooseWorkload(wl, numa.Local2, ExecSimulated)
	if dec.Plan.ModelRep != static.ModelRep || dec.Plan.Access != static.Access {
		t.Fatalf("static decision %v differs from ChooseWorkload %v", dec.Plan, static)
	}
	if dec.RunnerUp == nil {
		t.Fatal("decision has no runner-up despite multiple candidates")
	}
	if dec.PredictedSeconds != 0 {
		t.Fatalf("PredictedSeconds = %v under the static prior, want 0", dec.PredictedSeconds)
	}
}
