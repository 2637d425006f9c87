package core

import (
	"fmt"

	"dimmwitted/internal/numa"
)

// CostModel is the optimizer's feedback seam: measured plan costs that
// override the static word-cost prior once enough observations exist.
// Implementations (internal/tune through the serve layer's adapter)
// return the EWMA of observed seconds-per-epoch for a normalized
// candidate plan, with ok true only past their observation threshold —
// an unwarmed key leaves the static ranking in charge.
type CostModel interface {
	MeasuredSeconds(p Plan) (seconds float64, ok bool)
}

// candidateCost is the optimizer's view of one candidate plan inside a
// decision: the normalized plan and its measured cost when the
// feedback store has one (MeasuredSeconds is the EWMA of
// seconds-per-epoch, meaningful only when Measured is true).
type candidateCost struct {
	Plan            Plan
	MeasuredSeconds float64
	Measured        bool
}

// PlanDecision is ChoosePlanModel's result: the chosen plan, how it
// was chosen, and the exploration target.
type PlanDecision struct {
	// Plan is the winner.
	Plan Plan
	// Source is "static" when the word-cost prior decided (no candidate
	// measured) and "measured" when feedback overrode it.
	Source string
	// PredictedSeconds is the winner's measured cost; 0 under the
	// static prior, which predicts no wall clock.
	PredictedSeconds float64
	// RunnerUp is the epsilon-exploration target: the candidate most
	// worth a measurement — the best-measured non-winner, or, while any
	// candidate is still unmeasured, the first of those, so every
	// candidate eventually crosses the observation threshold. Nil when
	// the decision has a single candidate.
	RunnerUp *Plan
}

// planSourceStatic and planSourceMeasured are the PlanDecision.Source
// values.
const (
	planSourceStatic   = "static"
	planSourceMeasured = "measured"
)

// normalizePlanFor runs the engine's normalization sequence without
// binding: the common defaults, then the workload's own.
func normalizePlanFor(wl Workload, p Plan) Plan {
	return wl.NormalizePlan(p.normalizeCommon())
}

// validatePlanFor runs the engine's validation sequence without
// binding, mirroring NewWorkload.
func validatePlanFor(wl Workload, p Plan) error {
	if err := p.validateCommon(); err != nil {
		return err
	}
	supported := false
	for _, a := range wl.Supports() {
		if a == p.Access {
			supported = true
		}
	}
	if !supported {
		return fmt.Errorf("core: %s does not support %s access", wl.Name(), p.Access)
	}
	return wl.ValidatePlan(p)
}

// CandidatePlans enumerates the decision's plan space: the workload's
// static choice first, then the model-replication variants the static
// rules of thumb rejected (each paired with a data replication the
// workload accepts — Gibbs ties sharding to single-chain PerMachine,
// for instance) and, for the parallel backend, the neighbouring
// steal-chunk granularities. Every candidate is normalized and
// validated; invalid variants are dropped, so the list is directly
// runnable. The static winner is always index 0.
func CandidatePlans(wl Workload, top numa.Topology, exec ExecutorKind) ([]Plan, error) {
	static, err := wl.Optimize(top, exec)
	if err != nil {
		return nil, err
	}
	static = normalizePlanFor(wl, static)
	if err := validatePlanFor(wl, static); err != nil {
		return nil, err
	}
	cands := []Plan{static}
	for _, mr := range []ModelReplication{PerMachine, PerNode, PerCore} {
		if mr == static.ModelRep {
			continue
		}
		// Try the static pairing first, then the alternatives, keeping
		// the first data replication the workload validates. Importance
		// is never proposed: it subsamples, so its epochs are not
		// cost-comparable with full passes.
		for _, dr := range []DataReplication{static.DataRep, FullReplication, Sharding} {
			v := static
			v.ModelRep = mr
			v.DataRep = dr
			v = normalizePlanFor(wl, v)
			if validatePlanFor(wl, v) == nil {
				cands = append(cands, v)
				break
			}
		}
	}
	if exec == ExecParallel {
		for _, sc := range []int{16, 256} {
			if sc == static.StealChunk {
				continue
			}
			v := static
			v.StealChunk = sc
			v = normalizePlanFor(wl, v)
			if validatePlanFor(wl, v) == nil {
				cands = append(cands, v)
			}
		}
	}
	return cands, nil
}

// ChoosePlanModel runs the feedback-aware optimizer: the static
// simulated-NUMA estimate remains the prior (candidate 0 wins when
// nothing is measured), but once the cost model reports measured costs
// the cheapest measured candidate wins instead. A nil cost model
// degrades to the static choice — ChooseWorkload with a candidate
// table.
func ChoosePlanModel(wl Workload, top numa.Topology, exec ExecutorKind, cm CostModel) (PlanDecision, error) {
	cands, err := CandidatePlans(wl, top, exec)
	if err != nil {
		return PlanDecision{}, err
	}
	dec := PlanDecision{Source: planSourceStatic}
	costs := make([]candidateCost, len(cands))
	bestMeasured, bestSeconds := -1, 0.0
	for i, p := range cands {
		cc := candidateCost{Plan: p}
		if cm != nil {
			if sec, ok := cm.MeasuredSeconds(p); ok {
				cc.MeasuredSeconds, cc.Measured = sec, true
				if bestMeasured < 0 || sec < bestSeconds {
					bestMeasured, bestSeconds = i, sec
				}
			}
		}
		costs[i] = cc
	}
	win := 0
	if bestMeasured >= 0 {
		win = bestMeasured
		dec.Source = planSourceMeasured
		dec.PredictedSeconds = bestSeconds
	}
	dec.Plan = cands[win]
	dec.RunnerUp = runnerUp(costs, win)
	return dec, nil
}

// runnerUp picks the exploration target among the non-winners: the
// first unmeasured candidate if any (discovery — without a visit it
// can never cross the threshold), else the cheapest measured one
// (staleness-busting — re-measuring the closest rival is what lets a
// drifted winner be dethroned).
func runnerUp(cands []candidateCost, win int) *Plan {
	var bestMeasured *Plan
	bestSeconds := 0.0
	for i := range cands {
		if i == win {
			continue
		}
		c := &cands[i]
		if !c.Measured {
			p := c.Plan
			return &p
		}
		if bestMeasured == nil || c.MeasuredSeconds < bestSeconds {
			p := c.Plan
			bestMeasured, bestSeconds = &p, c.MeasuredSeconds
		}
	}
	return bestMeasured
}
