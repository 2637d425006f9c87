package model

import (
	"math"

	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// ParallelSum is the trivial "statistical model" behind the paper's
// throughput microbenchmark (Figure 13): every worker folds the rows
// it sees into a single accumulator. Under PerMachine replication all
// workers contend on one accumulator (the Hogwild! layout); under
// PerNode each socket keeps its own (the DimmWitted layout that incurs
// 8x fewer LLC misses in the paper).
//
// The replica's one-component model holds the partial sum. Loss is the
// relative distance of the (scaled) accumulator from the true total,
// so convergence machinery still functions, though the benchmark only
// reports throughput.
type ParallelSum struct{}

// NewParallelSum returns a parallel-sum specification.
func NewParallelSum() *ParallelSum { return &ParallelSum{} }

// Name implements Spec.
func (*ParallelSum) Name() string { return "sum" }

// Supports implements Spec.
func (*ParallelSum) Supports() []Access { return []Access{RowWise, ColWise} }

// DenseUpdate implements Spec: the update writes the single
// accumulator component every row — maximally contended.
func (*ParallelSum) DenseUpdate() bool { return true }

// NewReplica implements Spec: a one-component accumulator.
func (*ParallelSum) NewReplica(*data.Dataset) *Replica {
	return &Replica{X: make([]float64, 1)}
}

// RowStep implements Spec: fold row i into the accumulator.
func (*ParallelSum) RowStep(ds *data.Dataset, i int, r *Replica, _ float64) Stats {
	_, vals := ds.A.Row(i)
	var s float64
	for _, v := range vals {
		s += v
	}
	r.X[0] += s
	return Stats{DataWords: len(vals), ModelReads: 1, ModelWrites: 1, Flops: len(vals) + 1}
}

// accumulator is the one coordinate every parallel-sum step writes.
var accumulator = []int32{0}

// RowSteps implements Spec. Every row writes the accumulator, so that
// is all dirty ever holds.
func (p *ParallelSum) RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats {
	var st Stats
	for _, i := range rows {
		st.Add(p.RowStep(ds, i, r, step))
	}
	if dirty != nil && len(rows) > 0 {
		dirty.Mark(accumulator)
	}
	return st
}

// ColStep implements Spec: fold column j into the accumulator.
func (*ParallelSum) ColStep(ds *data.Dataset, j int, r *Replica, _ float64) Stats {
	_, vals := ds.CSC().Col(j)
	var s float64
	for _, v := range vals {
		s += v
	}
	r.X[0] += s
	return Stats{DataWords: len(vals), ModelReads: 1, ModelWrites: 1, Flops: len(vals) + 1}
}

// RefreshAux implements Spec: no auxiliary state.
func (*ParallelSum) RefreshAux(*data.Dataset, *Replica) {}

// Loss implements Spec: relative error of the accumulator against the
// true total of the matrix.
func (p *ParallelSum) Loss(ds *data.Dataset, x []float64) float64 { return foldLoss(p, ds, x) }

// LossTerms implements Spec: every term is 0. The objective is not a
// sum over rows; FinishLoss computes all of it.
func (*ParallelSum) LossTerms(_ *data.Dataset, _ []float64, _ int, terms []float64) {
	clear(terms)
}

// FinishLoss implements Spec: the accumulator's distance from the
// matrix total, relative to that total.
func (*ParallelSum) FinishLoss(ds *data.Dataset, x []float64, _ float64) float64 {
	var truth float64
	for _, v := range ds.A.Vals {
		truth += v
	}
	if truth == 0 {
		return math.Abs(x[0])
	}
	return math.Abs(x[0]-truth) / math.Abs(truth)
}

// Combine implements Spec: partial sums are added, not averaged —
// each replica holds the total of the rows its workers folded.
func (*ParallelSum) Combine(replicas [][]float64, dst []float64) {
	for i := range dst {
		var s float64
		for _, r := range replicas {
			s += r[i]
		}
		dst[i] = s
	}
}

// Predict implements Spec: the weighted total is the score itself.
func (*ParallelSum) Predict(score float64) float64 { return score }

// Aggregate implements Spec: parallel sum is a one-pass aggregate.
func (*ParallelSum) Aggregate() bool { return true }
