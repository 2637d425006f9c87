package model

import (
	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// QP solves the graph-smoothing quadratic program behind the paper's
// QP network-analysis workload:
//
//	minimise  ½ Σ_{(u,v)∈E} (x_u − x_v)²  +  (λ/2) Σ_{v anchored} (x_v − a_v)²
//
// where anchors a come from the dataset. Row-wise access is SGD over
// edges; column-wise access is exact coordinate minimisation that
// reads the neighbours of a vertex through column-to-row access.
type QP struct {
	// Lambda weighs the anchor (supervision) term.
	Lambda float64
}

// NewQP returns a QP specification with the default anchor weight.
func NewQP() *QP { return &QP{Lambda: 1} }

// Name implements Spec.
func (*QP) Name() string { return "qp" }

// Supports implements Spec: the coordinate update must read neighbour
// values from the rows of the incident edges, so it is column-to-row.
func (*QP) Supports() []Access { return []Access{ColToRow, RowWise} }

// DenseUpdate implements Spec.
func (*QP) DenseUpdate() bool { return false }

// NewReplica implements Spec: start at zero.
func (*QP) NewReplica(ds *data.Dataset) *Replica {
	return &Replica{X: make([]float64, ds.Cols())}
}

// RowStep implements Spec: RowSteps over edge i alone.
func (qp *QP) RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats {
	return qp.RowSteps(ds, []int{i}, r, step, nil)
}

// RowSteps implements Spec: SGD on each edge, in order. The anchor
// term of each endpoint is apportioned by its degree so one epoch
// applies it once. Every step writes both endpoints.
func (qp *QP) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	csc := ds.CSC()
	for _, i := range rows {
		idx, _ := ds.A.Row(i)
		u, v := int(idx[0]), int(idx[1])
		d := r.X[u] - r.X[v]
		gu, gv := d, -d
		if a := ds.Anchors[u]; a != 0 {
			gu += qp.Lambda / float64(csc.ColNNZ(u)) * (r.X[u] - a)
		}
		if a := ds.Anchors[v]; a != 0 {
			gv += qp.Lambda / float64(csc.ColNNZ(v)) * (r.X[v] - a)
		}
		r.X[u] -= step * gu
		r.X[v] -= step * gv
		if dirty != nil {
			dirty.Mark(idx)
		}
	}
	n := len(rows)
	return Stats{DataWords: 2 * n, ModelReads: 2 * n, ModelWrites: 2 * n, Flops: 12 * n}
}

// ColStep implements Spec: exact coordinate minimisation of vertex j,
//
//	x_j = (Σ_{nbr} x_nbr + λ·a_j·[anchored]) / (deg_j + λ·[anchored])
//
// reading each incident edge's full row (column-to-row access) to find
// the neighbour endpoint. The step argument damps the move.
func (qp *QP) ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats {
	rows, _ := ds.CSC().Col(j)
	st := Stats{ModelWrites: 1, Flops: 4*len(rows) + 6}
	var sum float64
	for _, e := range rows {
		idx, _ := ds.A.Row(int(e))
		st.DataWords += len(idx)
		nbr := int(idx[0])
		if nbr == j {
			nbr = int(idx[1])
		}
		sum += r.X[nbr]
		st.ModelReads++
	}
	denom := float64(len(rows))
	if a := ds.Anchors[j]; a != 0 {
		sum += qp.Lambda * a
		denom += qp.Lambda
	}
	if denom == 0 {
		return st
	}
	target := sum / denom
	r.X[j] += step * (target - r.X[j])
	return st
}

// RefreshAux implements Spec: QP keeps no auxiliary state.
func (*QP) RefreshAux(*data.Dataset, *Replica) {}

// Loss implements Spec: the smoothing objective, normalised per vertex.
func (qp *QP) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(qp, ds, x) }

// LossTerms implements Spec: edge i's smoothing term ½(x_u − x_v)².
func (*QP) LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64) {
	for k := range terms {
		idx, _ := ds.A.Row(lo + k)
		d := x[idx[0]] - x[idx[1]]
		terms[k] = 0.5 * d * d
	}
}

// FinishLoss implements Spec: the anchor terms, then per vertex.
func (qp *QP) FinishLoss(ds *data.Dataset, x []float64, total float64) float64 {
	for v, a := range ds.Anchors {
		if a != 0 {
			e := x[v] - a
			total += 0.5 * qp.Lambda * e * e
		}
	}
	return total / float64(ds.Cols())
}

// Combine implements Spec: Bismarck-style model averaging.
func (*QP) Combine(replicas [][]float64, dst []float64) {
	vec.Average(dst, replicas...)
}

// Predict implements Spec: the smoothed value interpolated from the
// example's (weighted) neighbourhood.
func (*QP) Predict(score float64) float64 { return score }

// Aggregate implements Spec: iterative estimator, not an aggregate.
func (*QP) Aggregate() bool { return false }
