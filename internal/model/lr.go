package model

import (
	"math"

	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// LR is binary logistic regression trained on the logistic loss,
// optionally with L2 regularisation (see SVM.Lambda for the
// support-scaled lazy scheme).
type LR struct {
	// Lambda is the L2 regularisation weight; 0 disables it.
	Lambda float64
}

// NewLR returns an unregularised logistic-regression specification.
func NewLR() *LR { return &LR{} }

// NewLRRegularized returns an LR with L2 weight lambda.
func NewLRRegularized(lambda float64) *LR { return &LR{Lambda: lambda} }

// Name implements Spec.
func (*LR) Name() string { return "lr" }

// Supports implements Spec.
func (*LR) Supports() []Access { return []Access{RowWise, ColToRow} }

// DenseUpdate implements Spec.
func (*LR) DenseUpdate() bool { return false }

// NewReplica implements Spec.
func (*LR) NewReplica(ds *data.Dataset) *Replica {
	return &Replica{X: make([]float64, ds.Cols())}
}

// sigmoid returns 1/(1+e^-t) with clamping against overflow.
func sigmoid(t float64) float64 {
	if t > 35 {
		return 1
	}
	if t < -35 {
		return 0
	}
	return 1 / (1 + math.Exp(-t))
}

// RowStep implements Spec: RowSteps over row i alone.
func (lr *LR) RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats {
	return lr.RowSteps(ds, []int{i}, r, step, nil)
}

// RowSteps implements Spec: one SGD step per row, in order.
//
//	p = σ(y_i ⟨x, a_i⟩);  x += step · (1 − p) · y_i · a_i
//
// Every step writes the row's support.
func (lr *LR) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	x := r.X
	// shrunk counts the nonzeros of rows that took the L2 shrink.
	nnz, shrunk := 0, 0
	for _, i := range rows {
		idx, vals := ds.A.Row(i)
		y := ds.Labels[i]
		nnz += len(idx)
		if lr.Lambda > 0 && len(idx) > 0 {
			shrink := 1 - step*lr.Lambda*float64(ds.Cols())/(float64(len(idx))*float64(ds.Rows()))
			if shrink < 0 {
				shrink = 0
			}
			for _, j := range idx {
				x[j] *= shrink
			}
			shrunk += len(idx)
		}
		p := sigmoid(y * vec.SparseDot(vals, idx, x))
		vec.SparseAXPY(step*(1-p)*y, vals, idx, x)
		if dirty != nil {
			dirty.Mark(idx)
		}
	}
	return Stats{
		DataWords:   nnz,
		ModelReads:  nnz,
		ModelWrites: nnz + shrunk,
		Flops:       4*nnz + 8*len(rows) + shrunk,
	}
}

// ColStep implements Spec: coordinate gradient step on x_j via
// column-to-row access, recomputing probabilities from the raw rows.
func (*LR) ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats {
	rows, colVals := ds.CSC().Col(j)
	var grad float64
	st := Stats{ModelWrites: 1}
	for k, i := range rows {
		idx, vals := ds.A.Row(int(i))
		y := ds.Labels[i]
		p := sigmoid(y * vec.SparseDot(vals, idx, r.X))
		grad -= (1 - p) * y * colVals[k]
		st.DataWords += len(idx)
		st.ModelReads += len(idx)
		st.Flops += 2*len(idx) + 10
	}
	n := float64(len(rows))
	if n > 0 {
		r.X[j] -= step * grad / n
	}
	return st
}

// RefreshAux implements Spec: LR keeps no auxiliary state.
func (*LR) RefreshAux(*data.Dataset, *Replica) {}

// Loss implements Spec: mean logistic loss, plus (λ/2N)‖x‖² when
// regularised.
func (lr *LR) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(lr, ds, x) }

// LossTerms implements Spec: the logistic loss log(1 + e^{−y_i⟨x, a_i⟩}).
func (*LR) LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64) {
	for k := range terms {
		idx, vals := ds.A.Row(lo + k)
		m := ds.Labels[lo+k] * vec.SparseDot(vals, idx, x)
		// log(1 + e^{-m}) computed stably.
		switch {
		case m > 35:
			terms[k] = 0 // loss ~ e^{-m} ~ 0
		case m < -35:
			terms[k] = -m
		default:
			terms[k] = math.Log1p(math.Exp(-m))
		}
	}
}

// FinishLoss implements Spec: the mean, plus the regulariser.
func (lr *LR) FinishLoss(ds *data.Dataset, x []float64, total float64) float64 {
	loss := total / float64(ds.Rows())
	if lr.Lambda > 0 {
		n := vec.Norm2(x)
		loss += 0.5 * lr.Lambda * n * n / float64(ds.Rows())
	}
	return loss
}

// Combine implements Spec: Bismarck-style model averaging.
func (*LR) Combine(replicas [][]float64, dst []float64) {
	vec.Average(dst, replicas...)
}

// Predict implements Spec: the class whose posterior exceeds 1/2
// (sigmoid(score) >= 1/2 exactly when score >= 0).
func (*LR) Predict(score float64) float64 {
	if score >= 0 {
		return 1
	}
	return -1
}

// Aggregate implements Spec: iterative estimator, not an aggregate.
func (*LR) Aggregate() bool { return false }
