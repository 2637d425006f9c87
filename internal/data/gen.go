// Package data synthesises the datasets of the paper's evaluation
// (Figure 10). The real corpora (RCV1, Reuters, Music, Forest, the
// Amazon and Google graphs, Paleo, MNIST, ClueWeb) are not available
// offline, so each named constructor generates a deterministic,
// scaled-down instance matched to the statistics that drive the
// tradeoffs the paper studies: row count vs dimension (under/over-
// determination), nonzeros per row (the cost model's n_i), sparsity
// pattern (Zipf-distributed column popularity for text, power-law
// degrees for graphs), and density (dense feature matrices for
// Music/Forest).
//
// Labels are generated from a hidden ground-truth model plus noise, so
// losses genuinely decrease under training and "epochs to x% of the
// optimal loss" is a meaningful measurement.
package data

import (
	"fmt"
	"math/rand"
	"sync"

	"dimmwitted/internal/mat"
)

// Task describes which statistical model a dataset is intended for.
type Task int

const (
	// Classification datasets carry ±1 labels (SVM, LR).
	Classification Task = iota
	// Regression datasets carry real-valued labels (LS).
	Regression
	// VertexCoverLP datasets encode min Σx s.t. x_u+x_v ≥ 1 on a graph.
	VertexCoverLP
	// GraphQP datasets encode graph-smoothing quadratic programs.
	GraphQP
)

// String implements fmt.Stringer.
func (t Task) String() string {
	switch t {
	case Classification:
		return "classification"
	case Regression:
		return "regression"
	case VertexCoverLP:
		return "vertex-cover-lp"
	case GraphQP:
		return "graph-qp"
	default:
		return fmt.Sprintf("Task(%d)", int(t))
	}
}

// Dataset is an analytics input in the paper's sense: an immutable
// data matrix A (N rows, d columns) plus per-row labels where the task
// has them. The model vector x ∈ R^d is owned by the engine, not here.
type Dataset struct {
	// Name identifies the dataset in reports ("rcv1", "music", ...).
	Name string
	// Task is the statistical model family this dataset targets.
	Task Task
	// A is the data matrix in CSR (row-wise access) form.
	A *mat.CSR
	// Labels holds one label per row for supervised tasks; nil for
	// LP/QP where the objective is encoded by the matrix itself.
	Labels []float64
	// TrueModel is the hidden generator model, when one exists. Tests
	// use it to check recovery; the engine never sees it.
	TrueModel []float64
	// Anchors holds per-column anchor values for GraphQP tasks (the
	// λ-weighted supervision term); nil otherwise.
	Anchors []float64
	// Version distinguishes successive published views of a growing
	// (streamed) dataset. Registry datasets are frozen at version 1;
	// every append to a stream publishes a new view with a higher
	// version. Plan-cache and tune-store keys include it so plans sized
	// for a smaller matrix are never reused after growth.
	Version uint64

	cscOnce sync.Once
	csc     *mat.CSC
}

// Rows returns the number of examples N.
func (d *Dataset) Rows() int { return d.A.Rows }

// Cols returns the model dimension d.
func (d *Dataset) Cols() int { return d.A.Cols }

// NNZ returns the number of nonzeros of the data matrix.
func (d *Dataset) NNZ() int64 { return d.A.NNZ() }

// CSC returns the column-oriented form of the data matrix, which
// column-wise and column-to-row plans stream. It is built on first use,
// exactly once, and is safe to call from concurrent goroutines: a
// published view can be shared by several engines before any of them
// asks for its columns, and a view nobody reads column-wise never pays
// for the copy.
func (d *Dataset) CSC() *mat.CSC {
	d.cscOnce.Do(func() { d.csc = d.A.ToCSC() })
	return d.csc
}

// AvgRowNNZ returns the mean number of nonzeros per row (the paper's
// average n_i).
func (d *Dataset) AvgRowNNZ() float64 {
	if d.A.Rows == 0 {
		return 0
	}
	return float64(d.A.NNZ()) / float64(d.A.Rows)
}

// Validate checks the dataset invariants.
func (d *Dataset) Validate() error {
	if err := d.A.Validate(); err != nil {
		return fmt.Errorf("data: %s: %w", d.Name, err)
	}
	if d.Labels != nil && len(d.Labels) != d.A.Rows {
		return fmt.Errorf("data: %s: %d labels for %d rows", d.Name, len(d.Labels), d.A.Rows)
	}
	if d.TrueModel != nil && len(d.TrueModel) != d.A.Cols {
		return fmt.Errorf("data: %s: true model dim %d, want %d", d.Name, len(d.TrueModel), d.A.Cols)
	}
	return nil
}

// SparseConfig parameterises a synthetic sparse supervised dataset in
// the style of text corpora: column popularity follows a Zipf law, so
// a few columns are very dense (stop words) and most are rare.
type SparseConfig struct {
	// Name labels the generated dataset.
	Name string
	// Rows and Cols give the matrix shape.
	Rows, Cols int
	// NNZPerRow is the expected number of nonzeros per row.
	NNZPerRow int
	// Noise is the label-flip probability (classification) or the
	// additive noise standard deviation (regression).
	Noise float64
	// Regression selects real-valued labels instead of ±1.
	Regression bool
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateSparse builds a sparse supervised dataset per the config.
func GenerateSparse(cfg SparseConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := rand.NewZipf(rng, 1.4, 4, uint64(cfg.Cols-1))

	truth := make([]float64, cfg.Cols)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}

	b := mat.NewBuilder(cfg.Cols)
	labels := make([]float64, cfg.Rows)
	seen := make(map[int32]bool, cfg.NNZPerRow*2)
	for i := 0; i < cfg.Rows; i++ {
		nnz := 1 + rng.Intn(2*cfg.NNZPerRow-1) // mean ≈ NNZPerRow, min 1
		for k := range seen {
			delete(seen, k)
		}
		idx := make([]int32, 0, nnz)
		vals := make([]float64, 0, nnz)
		for len(idx) < nnz {
			j := int32(zipf.Uint64())
			if seen[j] {
				continue
			}
			seen[j] = true
			idx = append(idx, j)
			vals = append(vals, 0.5+rng.Float64()) // tf-idf-like positive weights
		}
		b.AddRow(idx, vals)
		score := 0.0
		for k, j := range idx {
			score += vals[k] * truth[j]
		}
		if cfg.Regression {
			labels[i] = score + cfg.Noise*rng.NormFloat64()
		} else {
			y := 1.0
			if score < 0 {
				y = -1
			}
			if rng.Float64() < cfg.Noise {
				y = -y
			}
			labels[i] = y
		}
	}
	task := Classification
	if cfg.Regression {
		task = Regression
	}
	return &Dataset{Name: cfg.Name, Task: task, A: b.Build(), Labels: labels, TrueModel: truth}
}

// DenseConfig parameterises a dense supervised dataset in the style of
// the Music and Forest benchmarks: every feature present on every row,
// standardised feature values.
type DenseConfig struct {
	// Name labels the generated dataset.
	Name string
	// Rows and Cols give the matrix shape (Rows >> Cols: overdetermined).
	Rows, Cols int
	// Noise is as in SparseConfig.
	Noise float64
	// Regression selects real-valued labels instead of ±1.
	Regression bool
	// Seed makes generation deterministic.
	Seed int64
}

// GenerateDense builds a dense supervised dataset per the config.
func GenerateDense(cfg DenseConfig) *Dataset {
	rng := rand.New(rand.NewSource(cfg.Seed))
	truth := make([]float64, cfg.Cols)
	for j := range truth {
		truth[j] = rng.NormFloat64()
	}
	b := mat.NewBuilder(cfg.Cols)
	labels := make([]float64, cfg.Rows)
	row := make([]float64, cfg.Cols)
	for i := 0; i < cfg.Rows; i++ {
		var score float64
		for j := range row {
			row[j] = rng.NormFloat64()
			score += row[j] * truth[j]
		}
		b.AddDenseRow(row)
		if cfg.Regression {
			labels[i] = score + cfg.Noise*rng.NormFloat64()
		} else {
			y := 1.0
			if score < 0 {
				y = -1
			}
			if rng.Float64() < cfg.Noise {
				y = -y
			}
			labels[i] = y
		}
	}
	task := Classification
	if cfg.Regression {
		task = Regression
	}
	return &Dataset{Name: cfg.Name, Task: task, A: b.Build(), Labels: labels, TrueModel: truth}
}
