package model

import (
	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// LS is least-squares regression on the squared loss.
//
// Row-wise it is SGD; column-wise it is exact coordinate descent over
// a maintained residual vector r = Ax − y, the classical SCD layout
// (GraphLab/Shogun/Thetis in Figure 2). The residual is the replica's
// auxiliary state and is rebuilt by RefreshAux after model averaging.
type LS struct{}

// NewLS returns a least-squares specification.
func NewLS() *LS { return &LS{} }

// Name implements Spec.
func (*LS) Name() string { return "ls" }

// Supports implements Spec.
func (*LS) Supports() []Access { return []Access{RowWise, ColWise} }

// DenseUpdate implements Spec.
func (*LS) DenseUpdate() bool { return false }

// NewReplica implements Spec: residuals start at −y since x = 0.
func (*LS) NewReplica(ds *data.Dataset) *Replica {
	r := &Replica{X: make([]float64, ds.Cols()), Aux: make([]float64, ds.Rows())}
	for i := range r.Aux {
		r.Aux[i] = -ds.Labels[i]
	}
	return r
}

// RowStep implements Spec: RowSteps over row i alone.
func (l *LS) RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats {
	return l.RowSteps(ds, []int{i}, r, step, nil)
}

// RowSteps implements Spec: one SGD step per row, in order.
//
//	e = ⟨x, a_i⟩ − y_i;  x −= step · e · a_i
//
// Every step writes the row's support.
func (*LS) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	nnz := 0
	for _, i := range rows {
		idx, vals := ds.A.Row(i)
		e := vec.SparseDot(vals, idx, r.X) - ds.Labels[i]
		vec.SparseAXPY(-step*e, vals, idx, r.X)
		nnz += len(idx)
		if dirty != nil {
			dirty.Mark(idx)
		}
	}
	return Stats{
		DataWords:   nnz,
		ModelReads:  nnz,
		ModelWrites: nnz,
		Flops:       4 * nnz,
	}
}

// ColStep implements Spec: exact coordinate minimisation of component
// j over the residual cache.
//
//	δ = −⟨A_:j, r⟩ / ⟨A_:j, A_:j⟩;  x_j += δ;  r += δ·A_:j
func (*LS) ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats {
	rows, vals := ds.CSC().Col(j)
	var dot, norm float64
	for k, i := range rows {
		dot += vals[k] * r.Aux[i]
		norm += vals[k] * vals[k]
	}
	st := Stats{
		DataWords:   len(rows),
		AuxReads:    len(rows),
		ModelReads:  1,
		ModelWrites: 1,
		AuxWrites:   len(rows),
		Flops:       6 * len(rows),
	}
	if norm == 0 {
		return st
	}
	// Exact minimisation scaled by step (step = 1 recovers exact CD;
	// the engine may damp it for stability under stale replicas).
	delta := -step * dot / norm
	r.X[j] += delta
	for k, i := range rows {
		r.Aux[i] += delta * vals[k]
	}
	return st
}

// RefreshAux implements Spec: rebuild r = Ax − y from the model.
func (*LS) RefreshAux(ds *data.Dataset, r *Replica) {
	for i := 0; i < ds.Rows(); i++ {
		idx, vals := ds.A.Row(i)
		r.Aux[i] = vec.SparseDot(vals, idx, r.X) - ds.Labels[i]
	}
}

// Loss implements Spec: mean squared error (half).
func (l *LS) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(l, ds, x) }

// LossTerms implements Spec: the half squared error ½(⟨x, a_i⟩ − y_i)².
func (*LS) LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64) {
	for k := range terms {
		idx, vals := ds.A.Row(lo + k)
		e := vec.SparseDot(vals, idx, x) - ds.Labels[lo+k]
		terms[k] = 0.5 * e * e
	}
}

// FinishLoss implements Spec: the mean.
func (*LS) FinishLoss(ds *data.Dataset, _ []float64, total float64) float64 {
	return total / float64(ds.Rows())
}

// Combine implements Spec: Bismarck-style model averaging.
func (*LS) Combine(replicas [][]float64, dst []float64) {
	vec.Average(dst, replicas...)
}

// Predict implements Spec: the regressed value is the score itself.
func (*LS) Predict(score float64) float64 { return score }

// Aggregate implements Spec: iterative estimator, not an aggregate.
func (*LS) Aggregate() bool { return false }
