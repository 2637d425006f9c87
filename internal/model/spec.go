// Package model implements the paper's model specifications
// (Section 3.1): for each statistical task, a tuple of functions that
// solve the same underlying model through different access methods —
// f_row (row-wise), f_col (column-wise) and f_ctr (column-to-row) —
// plus the loss used to measure convergence.
//
// Five models from the evaluation are provided: support vector
// machines (SVM), logistic regression (LR), least squares (LS), linear
// programming (LP, the vertex-cover relaxation the paper's network-
// analysis application uses), and quadratic programming (QP, graph
// smoothing). A trivial parallel-sum specification backs the
// throughput microbenchmark of Figure 13.
package model

import (
	"fmt"

	"dimmwitted/internal/data"
	"dimmwitted/internal/vec"
)

// Access identifies one of the paper's three data access methods
// (Section 2.1, Figure 1c).
type Access int

const (
	// RowWise scans rows; the update may touch the whole model.
	RowWise Access = iota
	// ColWise scans columns; the update touches one model component,
	// reading per-row auxiliary state (residuals) instead of raw rows.
	ColWise
	// ColToRow scans columns but reads every row in which the column
	// is nonzero (the paper's f_ctr; de facto method for Gibbs).
	ColToRow
)

// String implements fmt.Stringer.
func (a Access) String() string {
	switch a {
	case RowWise:
		return "row-wise"
	case ColWise:
		return "column-wise"
	case ColToRow:
		return "column-to-row"
	default:
		return fmt.Sprintf("Access(%d)", int(a))
	}
}

// Stats counts the memory traffic of one step, in 8-byte words, so the
// engine can charge the simulated NUMA machine per Figure 6's cost
// model: data words streamed from the data replica, model words
// read/written on the model replica, and auxiliary-state words (SCD
// residuals) read/written.
type Stats struct {
	// DataWords counts words streamed from the immutable data matrix.
	DataWords int
	// ModelReads and ModelWrites count model-replica accesses.
	ModelReads, ModelWrites int
	// AuxReads and AuxWrites count auxiliary (residual) accesses.
	AuxReads, AuxWrites int
	// Flops estimates arithmetic operations, charged as ALU cycles.
	Flops int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.DataWords += other.DataWords
	s.ModelReads += other.ModelReads
	s.ModelWrites += other.ModelWrites
	s.AuxReads += other.AuxReads
	s.AuxWrites += other.AuxWrites
	s.Flops += other.Flops
}

// Replica is one model replica (Section 3.3): the mutable model vector
// plus any per-row auxiliary state the column-wise method maintains
// (SCD residuals/margins). The engine creates one Replica per locality
// group and averages X across replicas; Aux is recomputed from X after
// averaging via Spec.RefreshAux.
type Replica struct {
	// X is the model vector (dimension = dataset columns).
	X []float64
	// Aux is per-row auxiliary state, or nil if the spec needs none.
	Aux []float64
}

// Clone returns a deep copy of the replica.
func (r *Replica) Clone() *Replica {
	out := &Replica{X: append([]float64(nil), r.X...)}
	if r.Aux != nil {
		out.Aux = append([]float64(nil), r.Aux...)
	}
	return out
}

// Spec is a model specification: everything the engine needs to run
// one statistical task under any access method.
//
// All step methods mutate the replica in place and return the traffic
// stats of the step. Steps must be cheap and deterministic given the
// replica state; randomness in traversal order is the engine's job.
type Spec interface {
	// Name identifies the model ("svm", "lr", ...).
	Name() string
	// Supports lists the access methods this spec implements, most
	// statistically natural first.
	Supports() []Access
	// DenseUpdate reports whether the row-wise gradient writes all d
	// model components (dense update) rather than only the nonzero
	// support of the example (sparse update); see Section 3.2.
	DenseUpdate() bool
	// NewReplica allocates and initialises a replica for the dataset.
	NewReplica(ds *data.Dataset) *Replica
	// RowStep applies f_row for row i with the given step size.
	RowStep(ds *data.Dataset, i int, r *Replica, step float64) Stats
	// RowSteps applies RowStep to each of rows in order and returns
	// the summed stats. When dirty is non-nil it also marks there the
	// coordinates of X that each writing step wrote (the row's support
	// for the sparse-update specs); a step reporting ModelWrites == 0
	// leaves X unchanged and marks nothing.
	RowSteps(ds *data.Dataset, rows []int, r *Replica, step float64, dirty *vec.Dirty) Stats
	// ColStep applies f_col/f_ctr for column j with the given step size.
	ColStep(ds *data.Dataset, j int, r *Replica, step float64) Stats
	// RefreshAux recomputes auxiliary state from the model, called
	// after replicas are averaged. Specs without Aux do nothing.
	RefreshAux(ds *data.Dataset, r *Replica)
	// Combine merges replica model vectors into dst at a
	// synchronization point (Bismarck-style model averaging for the
	// convex models; summation for parallel sum). All slices share
	// dst's length; replicas is non-empty.
	Combine(replicas [][]float64, dst []float64)
	// Predict maps the raw linear score ⟨x, a⟩ of one example to the
	// model's prediction: the ±1 class label for classifiers (SVM,
	// LR), the regressed/score value itself for the others. Batched
	// serving goes through PredictBatch, which computes the scores.
	Predict(score float64) float64
	// Aggregate reports whether the model is a one-pass aggregate
	// (parallel sum) rather than an iterative estimator: replicas are
	// zeroed at the start of each epoch, combined once at the end, and
	// never synchronized mid-epoch, because Combine is not idempotent.
	Aggregate() bool
	// Loss evaluates the objective at model x over the full dataset:
	// every row's loss term, summed in row order, through FinishLoss.
	Loss(ds *data.Dataset, x []float64) float64
	// LossTerms writes the loss term of row lo+k at model x into
	// terms[k], for every k.
	LossTerms(ds *data.Dataset, x []float64, lo int, terms []float64)
	// FinishLoss maps the row-ordered sum of every row's loss term to
	// the objective: the mean, plus whatever part of the objective is
	// not a sum over rows (a regulariser, the LP cover, the QP
	// anchors).
	FinishLoss(ds *data.Dataset, x []float64, total float64) float64
}

// lossBlock is how many row terms foldLoss evaluates per LossTerms call.
const lossBlock = 256

// foldLoss is every spec's Loss: the row terms in row order, a block
// at a time through a stack buffer, then the spec's FinishLoss.
func foldLoss(s Spec, ds *data.Dataset, x []float64) float64 {
	var buf [lossBlock]float64
	var total float64
	for lo := 0; lo < ds.Rows(); lo += lossBlock {
		terms := buf[:min(lossBlock, ds.Rows()-lo)]
		s.LossTerms(ds, x, lo, terms)
		total = addTerms(total, terms)
	}
	return s.FinishLoss(ds, x, total)
}

// LossFromTerms is the objective from every row's loss term, given in
// row order (LossTerms over all rows, filled in any bands): the same
// row-ordered sum and FinishLoss as Loss, so the result is bitwise
// Loss's.
func LossFromTerms(s Spec, ds *data.Dataset, x []float64, terms []float64) float64 {
	return s.FinishLoss(ds, x, addTerms(0, terms))
}

// addTerms adds terms to total in order.
func addTerms(total float64, terms []float64) float64 {
	for _, t := range terms {
		total += t
	}
	return total
}

// ByName constructs a model specification from its short name.
func ByName(name string) (Spec, error) {
	switch name {
	case "svm":
		return NewSVM(), nil
	case "lr":
		return NewLR(), nil
	case "ls":
		return NewLS(), nil
	case "lp":
		return NewLP(), nil
	case "qp":
		return NewQP(), nil
	case "sum":
		return NewParallelSum(), nil
	default:
		return nil, fmt.Errorf("model: unknown model %q (want svm, lr, ls, lp, qp, or sum)", name)
	}
}

// supportsAccess reports whether spec lists a among its access methods.
func supportsAccess(spec Spec, a Access) bool {
	for _, s := range spec.Supports() {
		if s == a {
			return true
		}
	}
	return false
}

// Validate checks that a spec/dataset pairing makes sense and that the
// requested access method is implemented.
func Validate(spec Spec, ds *data.Dataset, a Access) error {
	if !supportsAccess(spec, a) {
		return fmt.Errorf("model: %s does not support %s access", spec.Name(), a)
	}
	return ds.Validate()
}
