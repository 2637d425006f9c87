// The feedback optimizer's measured-cost decisions, over every workload
// family it plans for. The external test package lets the table drive
// the real factor-graph adapter (which imports core).
package core_test

import (
	"fmt"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// planCosts is a CostModel over the plan axes the candidates vary in.
type planCosts map[string]float64

func planCostKey(p core.Plan) string { return fmt.Sprintf("%v/%d", p, p.StealChunk) }

func (m planCosts) MeasuredSeconds(p core.Plan) (float64, bool) {
	sec, ok := m[planCostKey(p)]
	return sec, ok
}

// TestChoosePlanModelMeasuredOverride: with every candidate measured,
// the measured costs decide, and the winner never costs more than the
// static prior's pick. The last candidate is made the cheapest so the
// override is visible; the runner-up is then the next-cheapest, the
// static pick.
func TestChoosePlanModelMeasuredOverride(t *testing.T) {
	cases := []struct {
		name string
		mk   func() core.Workload
		exec core.ExecutorKind
	}{
		{"glm/svm", func() core.Workload { return core.NewGLM(model.NewSVM(), data.Reuters()) }, core.ExecSimulated},
		{"glm/lr", func() core.Workload { return core.NewGLM(model.NewLR(), data.Reuters()) }, core.ExecSimulated},
		{"glm/svm/parallel", func() core.Workload { return core.NewGLM(model.NewSVM(), data.ReutersReplicated()) }, core.ExecParallel},
		{"gibbs", func() core.Workload { return factor.NewWorkload(factor.Cycle5()) }, core.ExecSimulated},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cands, err := core.CandidatePlans(c.mk(), numa.Local2, c.exec)
			if err != nil {
				t.Fatal(err)
			}
			if len(cands) < 2 {
				t.Fatalf("%d candidates; want the static pick plus variants", len(cands))
			}
			cm := planCosts{}
			for i, p := range cands {
				cm[planCostKey(p)] = 1.0 + float64(i)
			}
			last := cands[len(cands)-1]
			cm[planCostKey(last)] = 0.25
			if len(cm) != len(cands) {
				t.Fatalf("%d cost keys for %d candidates", len(cm), len(cands))
			}

			dec, err := core.ChoosePlanModel(c.mk(), numa.Local2, c.exec, cm)
			if err != nil {
				t.Fatal(err)
			}
			if dec.Source != "measured" {
				t.Fatalf("Source = %q with every candidate measured, want measured", dec.Source)
			}
			if won, static := cm[planCostKey(dec.Plan)], cm[planCostKey(cands[0])]; won > static {
				t.Fatalf("measured winner %v costs %v, more than the static pick's %v", dec.Plan, won, static)
			}
			if planCostKey(dec.Plan) != planCostKey(last) {
				t.Fatalf("measured winner = %v, want %v", dec.Plan, last)
			}
			if dec.PredictedSeconds != 0.25 {
				t.Fatalf("PredictedSeconds = %v, want 0.25", dec.PredictedSeconds)
			}
			if dec.RunnerUp == nil || planCostKey(*dec.RunnerUp) != planCostKey(cands[0]) {
				t.Fatalf("runner-up = %v, want the next-cheapest %v", dec.RunnerUp, cands[0])
			}
		})
	}
}

// A partially warmed store: the measured candidates decide the winner,
// and the runner-up is an unmeasured candidate (discovery beats
// re-measuring).
func TestChoosePlanModelRunnerUpPrefersUnmeasured(t *testing.T) {
	wl := core.NewGLM(model.NewSVM(), data.Reuters())
	cands, err := core.CandidatePlans(wl, numa.Local2, core.ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 3 {
		t.Skipf("need 3 candidates, have %d", len(cands))
	}
	cm := planCosts{planCostKey(cands[0]): 1.0, planCostKey(cands[1]): 0.5}
	dec, err := core.ChoosePlanModel(wl, numa.Local2, core.ExecSimulated, cm)
	if err != nil {
		t.Fatal(err)
	}
	if planCostKey(dec.Plan) != planCostKey(cands[1]) {
		t.Fatalf("winner = %v, want the cheapest measured %v", dec.Plan, cands[1])
	}
	if dec.RunnerUp == nil || planCostKey(*dec.RunnerUp) != planCostKey(cands[2]) {
		t.Fatalf("runner-up = %v, want the unmeasured %v", dec.RunnerUp, cands[2])
	}
}
