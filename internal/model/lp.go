package model

import (
	"sort"

	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// LP solves the vertex-cover linear-program relaxation the paper's
// network-analysis application uses (after Sridhar et al.'s
// LP-rounding solver):
//
//	minimise   Σ_v x_v
//	subject to x_u + x_v ≥ 1 for every edge (u,v),  x ∈ [0,1]^V
//
// solved via the quadratic penalty
//
//	F(x) = Σ_v x_v + ρ · Σ_e max(0, 1 − x_u − x_v)²
//
// Row-wise access is projected SGD over edges; column-wise access is
// exact 1-D coordinate minimisation over a maintained violation cache
// r_e = 1 − x_u − x_v (the replica's Aux). The data matrix has two
// nonzeros per row, which is what makes column-wise access dominate on
// these workloads (Section 4.3.1).
type LP struct {
	// Rho is the constraint-penalty weight.
	Rho float64
}

// NewLP returns an LP specification with the default penalty.
func NewLP() *LP { return &LP{Rho: 5} }

// Name implements Spec.
func (*LP) Name() string { return "lp" }

// Supports implements Spec.
func (*LP) Supports() []Access { return []Access{ColWise, RowWise} }

// DenseUpdate implements Spec.
func (*LP) DenseUpdate() bool { return false }

// NewReplica implements Spec: start from the all-ones feasible cover,
// so every iterate stays near-feasible and loss decreases toward the
// LP optimum from above. Aux caches the per-edge violation 1−x_u−x_v.
func (*LP) NewReplica(ds *data.Dataset) *Replica {
	r := &Replica{X: make([]float64, ds.Cols()), Aux: make([]float64, ds.Rows())}
	for j := range r.X {
		r.X[j] = 1
	}
	for i := range r.Aux {
		r.Aux[i] = -1 // 1 - 1 - 1
	}
	return r
}

// RowStep implements Spec: RowSteps over edge i alone.
func (lp *LP) RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats {
	return lp.RowSteps(ds, []int{i}, r, step, nil)
}

// RowSteps implements Spec: projected SGD on each edge's penalty
// piece, in order. The linear Σx term is apportioned to edges by
// endpoint degree so one epoch over edges applies it exactly once per
// vertex. Every step writes both endpoints.
func (lp *LP) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	csc := ds.CSC()
	for _, i := range rows {
		idx, _ := ds.A.Row(i)
		u, v := int(idx[0]), int(idx[1])
		viol := 1 - r.X[u] - r.X[v]
		var penaltyGrad float64
		if viol > 0 {
			penaltyGrad = -2 * lp.Rho * viol
		}
		gu := 1/float64(csc.ColNNZ(u)) + penaltyGrad
		gv := 1/float64(csc.ColNNZ(v)) + penaltyGrad
		r.X[u] = vec.Clamp(r.X[u]-step*gu, 0, 1)
		r.X[v] = vec.Clamp(r.X[v]-step*gv, 0, 1)
		if dirty != nil {
			dirty.Mark(idx)
		}
	}
	n := len(rows)
	return Stats{DataWords: 2 * n, ModelReads: 2 * n, ModelWrites: 2 * n, Flops: 12 * n}
}

// ColStep implements Spec: exact minimisation of F over x_j ∈ [0,1]
// holding the rest fixed, using the violation cache. With
// c_e = r_e + x_j (the violation if x_j were zero), the 1-D objective
//
//	g(t) = t + ρ Σ_{e∋j} max(0, c_e − t)²
//
// is convex piecewise-quadratic; its minimiser is found by scanning
// the breakpoints in decreasing order. The step argument damps the
// move (step = 1 is exact coordinate descent).
func (lp *LP) ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats {
	rows, _ := ds.CSC().Col(j)
	st := Stats{
		DataWords:   len(rows),
		AuxReads:    len(rows),
		ModelReads:  1,
		ModelWrites: 1,
		AuxWrites:   len(rows),
		Flops:       8*len(rows) + 8,
	}
	if len(rows) == 0 {
		return st
	}
	xj := r.X[j]
	c := make([]float64, len(rows))
	for k, e := range rows {
		c[k] = r.Aux[e] + xj
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(c)))
	// g'(t) = 1 − 2ρ Σ_{c_e > t} (c_e − t): increasing in t. Find the
	// smallest t ≥ 0 with g'(t) ≥ 0 by scanning active sets.
	target := 1 / (2 * lp.Rho)
	best := 0.0
	if 1-2*lp.Rho*(sumAbove(c, 0)) >= 0 {
		best = 0 // derivative already nonnegative at 0
	} else {
		best = c[0] // fallback: derivative positive for t ≥ max c
		var s float64
		for k := 0; k < len(c); k++ {
			s += c[k]
			t := (s - target) / float64(k+1)
			lower := 0.0
			if k+1 < len(c) {
				lower = c[k+1]
			}
			if t <= c[k] && t >= lower {
				best = t
				break
			}
		}
	}
	best = vec.Clamp(best, 0, 1)
	delta := step * (best - xj)
	if delta == 0 {
		return st
	}
	r.X[j] = xj + delta
	for _, e := range rows {
		r.Aux[e] -= delta
	}
	return st
}

// sumAbove returns Σ max(0, c_e − t).
func sumAbove(c []float64, t float64) float64 {
	var s float64
	for _, v := range c {
		if v > t {
			s += v - t
		}
	}
	return s
}

// RefreshAux implements Spec: rebuild the violation cache from the
// model.
func (*LP) RefreshAux(ds *data.Dataset, r *Replica) {
	for i := 0; i < ds.Rows(); i++ {
		idx, _ := ds.A.Row(i)
		r.Aux[i] = 1 - r.X[idx[0]] - r.X[idx[1]]
	}
}

// Loss implements Spec: the penalised objective, normalised per vertex.
func (lp *LP) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(lp, ds, x) }

// LossTerms implements Spec: edge i's squared violation
// max(0, 1 − x_u − x_v)², before the ρ weight.
func (*LP) LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64) {
	for k := range terms {
		idx, _ := ds.A.Row(lo + k)
		terms[k] = 0
		if viol := 1 - x[idx[0]] - x[idx[1]]; viol > 0 {
			terms[k] = viol * viol
		}
	}
}

// FinishLoss implements Spec: the cover Σx plus the ρ-weighted
// penalty, per vertex.
func (lp *LP) FinishLoss(ds *data.Dataset, x []float64, total float64) float64 {
	var cover float64
	for _, v := range x {
		cover += v
	}
	return (cover + lp.Rho*total) / float64(ds.Cols())
}

// Combine implements Spec: Bismarck-style model averaging.
func (*LP) Combine(replicas [][]float64, dst []float64) {
	vec.Average(dst, replicas...)
}

// Predict implements Spec: the constraint value x_u + x_v for an edge
// example — >= 1 means the edge is covered by the fractional solution.
func (*LP) Predict(score float64) float64 { return score }

// Aggregate implements Spec: iterative estimator, not an aggregate.
func (*LP) Aggregate() bool { return false }
