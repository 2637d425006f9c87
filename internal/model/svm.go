package model

import (
	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// SVM is a linear support vector machine trained on the hinge loss,
// optionally with L2 regularisation.
//
// Row-wise it is stochastic (sub)gradient descent, the Hogwild!/MLlib
// point in the tradeoff space; column-to-row it is stochastic
// coordinate descent recomputing margins from the raw rows, the
// GraphLab point (Figure 2).
type SVM struct {
	// Lambda is the L2 regularisation weight; 0 disables it. Row
	// steps shrink only the example's support, scaled by d/nᵢ so the
	// expected shrinkage per epoch is unbiased while updates stay
	// sparse (the lazy-regularisation trick of sparse SGD systems).
	Lambda float64
}

// NewSVM returns an unregularised SVM specification.
func NewSVM() *SVM { return &SVM{} }

// NewSVMRegularized returns an SVM with L2 weight lambda.
func NewSVMRegularized(lambda float64) *SVM { return &SVM{Lambda: lambda} }

// Name implements Spec.
func (*SVM) Name() string { return "svm" }

// Supports implements Spec: SGD row-wise is natural; coordinate
// descent uses column-to-row access (margins must be recomputed from
// rows because the hinge is not decomposable over residual caches).
func (*SVM) Supports() []Access { return []Access{RowWise, ColToRow} }

// DenseUpdate implements Spec: hinge gradients touch only the
// example's support (sparse update).
func (*SVM) DenseUpdate() bool { return false }

// NewReplica implements Spec.
func (*SVM) NewReplica(ds *data.Dataset) *Replica {
	return &Replica{X: make([]float64, ds.Cols())}
}

// RowStep implements Spec: RowSteps over row i alone.
func (s *SVM) RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats {
	return s.RowSteps(ds, []int{i}, r, step, nil)
}

// RowSteps implements Spec: one SGD step per row, in order.
//
//	margin = y_i ⟨x, a_i⟩;  if margin < 1:  x += step · y_i · a_i
//
// With Lambda > 0 the support coordinates are first shrunk by
// step·Lambda·d/(nᵢ·N), support-scaled lazy L2. Without it, a row
// whose margin is at least 1 writes nothing and marks nothing.
func (s *SVM) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	x := r.X
	// nnz counts the rows' nonzeros; shrunk and updated those of rows
	// that took the shrink and the hinge update.
	nnz, shrunk, updated := 0, 0, 0
	for _, i := range rows {
		idx, vals := ds.A.Row(i)
		y := ds.Labels[i]
		margin := y * vec.SparseDot(vals, idx, x)
		nnz += len(idx)
		wrote := false
		if s.Lambda > 0 && len(idx) > 0 {
			shrink := 1 - step*s.Lambda*float64(ds.Cols())/(float64(len(idx))*float64(ds.Rows()))
			if shrink < 0 {
				shrink = 0
			}
			for _, j := range idx {
				x[j] *= shrink
			}
			shrunk += len(idx)
			wrote = true
		}
		if margin < 1 {
			vec.SparseAXPY(step*y, vals, idx, x)
			updated += len(idx)
			wrote = true
		}
		if wrote && dirty != nil {
			dirty.Mark(idx)
		}
	}
	return Stats{
		DataWords:   nnz,
		ModelReads:  nnz,
		ModelWrites: shrunk + updated,
		Flops:       2*nnz + shrunk + 2*updated,
	}
}

// ColStep implements Spec: one coordinate subgradient step on
// component j using column-to-row access — it reads every row in
// S(j) = {i : a_ij ≠ 0} in full to recompute margins against the
// current model, then updates x_j alone.
func (*SVM) ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats {
	rows, colVals := ds.CSC().Col(j)
	var grad float64
	st := Stats{ModelWrites: 1}
	for k, i := range rows {
		idx, vals := ds.A.Row(int(i))
		y := ds.Labels[i]
		margin := y * vec.SparseDot(vals, idx, r.X)
		st.DataWords += len(idx)
		st.ModelReads += len(idx)
		st.Flops += 2*len(idx) + 2
		if margin < 1 {
			grad -= y * colVals[k]
		}
	}
	n := float64(len(rows))
	if n > 0 {
		r.X[j] -= step * grad / n
	}
	return st
}

// RefreshAux implements Spec: SVM keeps no auxiliary state.
func (*SVM) RefreshAux(*data.Dataset, *Replica) {}

// Loss implements Spec: mean hinge loss, plus (λ/2N)‖x‖² when
// regularised.
func (s *SVM) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(s, ds, x) }

// LossTerms implements Spec: the hinge loss max(0, 1 − y_i⟨x, a_i⟩).
func (*SVM) LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64) {
	for k := range terms {
		idx, vals := ds.A.Row(lo + k)
		margin := ds.Labels[lo+k] * vec.SparseDot(vals, idx, x)
		terms[k] = 0
		if h := 1 - margin; h > 0 {
			terms[k] = h
		}
	}
}

// FinishLoss implements Spec: the mean, plus the regulariser.
func (s *SVM) FinishLoss(ds *data.Dataset, x []float64, total float64) float64 {
	loss := total / float64(ds.Rows())
	if s.Lambda > 0 {
		n := vec.Norm2(x)
		loss += 0.5 * s.Lambda * n * n / float64(ds.Rows())
	}
	return loss
}

// Combine implements Spec: Bismarck-style model averaging.
func (*SVM) Combine(replicas [][]float64, dst []float64) {
	vec.Average(dst, replicas...)
}

// Predict implements Spec: the side of the separating hyperplane.
func (*SVM) Predict(score float64) float64 {
	if score >= 0 {
		return 1
	}
	return -1
}

// Aggregate implements Spec: iterative estimator, not an aggregate.
func (*SVM) Aggregate() bool { return false }
