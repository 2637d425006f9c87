// Package dimmwitted is a Go reproduction of the DimmWitted main-
// memory statistical analytics engine (Zhang & Ré, VLDB 2014). It
// runs first-order methods — SGD and coordinate descent over SVM,
// logistic regression, least squares, LP and QP models, plus Gibbs
// sampling and deep neural networks — while exploring the paper's
// three tradeoffs on a simulated NUMA machine:
//
//   - access method: row-wise vs column-wise / column-to-row,
//   - model replication: PerCore, PerNode, PerMachine,
//   - data replication: Sharding, FullReplication, Importance sampling.
//
// Execution is pluggable (Plan.Executor): the simulated backend runs
// the deterministic interleaver over the NUMA cost simulator, while
// ExecParallel runs the same plan with real goroutine Hogwild workers
// measured in wall-clock time.
//
// Quick start:
//
//	ds := dimmwitted.Reuters()                   // synthetic RCV1-style corpus
//	spec := dimmwitted.SVM()                     // hinge-loss model spec
//	plan, _ := dimmwitted.Choose(spec, ds, dimmwitted.Local2)
//	eng, _ := dimmwitted.New(spec, ds, plan)
//	res := eng.RunToLoss(0.1, 50)
//	fmt.Println(res.Converged, res.Epochs, res.Time, res.FinalLoss)
//
// Statistical efficiency (epochs to converge) is genuine: the
// algorithms really run on the data. Hardware efficiency (time per
// epoch, PMU-style counters) is accounted by a deterministic NUMA cost
// simulator parameterised with the paper's five machine topologies —
// see DESIGN.md for why and how the substitution preserves the
// tradeoffs under study.
package dimmwitted

import (
	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/nn"
	"dimmwitted/internal/numa"
)

// Engine executes one analytics task under an execution plan.
type Engine = core.Engine

// Plan is an execution plan: the point in the tradeoff space plus
// tuning knobs.
type Plan = core.Plan

// RunResult summarises a convergence run.
type RunResult = core.RunResult

// EpochResult reports one epoch.
type EpochResult = core.EpochResult

// CostEstimate is the optimizer's per-access cost prediction.
type CostEstimate = core.CostEstimate

// Dataset is an immutable data matrix plus labels.
type Dataset = data.Dataset

// Spec is a model specification (f_row / f_col / f_ctr plus loss).
type Spec = model.Spec

// Replica is one model replica (model vector plus auxiliary state).
type Replica = model.Replica

// Topology describes a NUMA machine shape.
type Topology = numa.Topology

// Counters are the PMU-style counters of the simulated machine.
type Counters = numa.Counters

// Access methods (Section 2.1 of the paper).
const (
	RowWise  = model.RowWise
	ColWise  = model.ColWise
	ColToRow = model.ColToRow
)

// Model replication granularities (Section 3.3).
const (
	PerCore    = core.PerCore
	PerNode    = core.PerNode
	PerMachine = core.PerMachine
)

// Data replication strategies (Section 3.4, Appendix C.4).
const (
	Sharding        = core.Sharding
	FullReplication = core.FullReplication
	Importance      = core.Importance
)

// Data placement protocols (Appendix A).
const (
	PlacementNUMA = core.PlacementNUMA
	PlacementOS   = core.PlacementOS
)

// ExecutorKind selects the execution backend for a plan.
type ExecutorKind = core.ExecutorKind

// Execution backends: the deterministic simulated-NUMA interleaver
// (the figure-reproduction default) and real goroutine Hogwild workers
// measured in wall-clock time.
const (
	ExecSimulated = core.ExecSimulated
	ExecParallel  = core.ExecParallel
)

// ExecutorByName maps executor names ("simulated", "parallel"; ""
// means simulated).
func ExecutorByName(name string) (ExecutorKind, error) { return core.ExecutorByName(name) }

// Workload is one analytics task the engine can execute: partitionable
// units, per-replica state, an update step, a combine and a quality
// metric. GLM training, Gibbs sampling and NN training all run through
// it.
type Workload = core.Workload

// WorkloadKind identifies a workload family for plans, snapshots and
// the serving API.
type WorkloadKind = core.WorkloadKind

// Workload families.
const (
	WorkloadGLM   = core.WorkloadGLM
	WorkloadGibbs = core.WorkloadGibbs
	WorkloadNN    = core.WorkloadNN
)

// WorkloadByName maps workload names ("glm", "gibbs", "nn"; "" means
// glm).
func WorkloadByName(name string) (WorkloadKind, error) { return core.WorkloadByName(name) }

// NewWorkloadEngine builds an engine for any workload (GLMWorkload,
// GibbsWorkload, NNWorkload). A workload instance binds to one engine.
func NewWorkloadEngine(wl Workload, plan Plan) (*Engine, error) { return core.NewWorkload(wl, plan) }

// GLMWorkload wraps a model spec and dataset as an engine workload —
// what New uses internally.
func GLMWorkload(spec Spec, ds *Dataset) Workload { return core.NewGLM(spec, ds) }

// FactorGraph is a factor graph over boolean variables, the Gibbs
// workload's data.
type FactorGraph = factor.Graph

// GibbsWorkload wraps a factor graph as an engine workload: chains map
// onto the plan's model replicas, variables onto work units.
func GibbsWorkload(g *FactorGraph) *factor.Workload { return factor.NewWorkload(g) }

// NNDataset is a labelled image dataset for the NN workload.
type NNDataset = nn.Dataset

// NNWorkload wraps an image dataset as an engine workload: network
// replicas map onto the plan's model replicas, examples onto work
// units. Sizes nil means the scaled LeCun architecture.
func NNWorkload(ds *NNDataset, sizes []int, seed int64) (*nn.Workload, error) {
	return nn.NewWorkload(ds, nn.WorkloadConfig{Sizes: sizes, Seed: seed})
}

// ChooseWorkload runs a workload's cost-based optimizer for a topology
// and execution backend.
func ChooseWorkload(wl Workload, top Topology, exec ExecutorKind) (Plan, error) {
	return core.ChooseWorkload(wl, top, exec)
}

// The paper's five machine configurations (Figure 3).
var (
	Local2 = numa.Local2
	Local4 = numa.Local4
	Local8 = numa.Local8
	EC21   = numa.EC21
	EC22   = numa.EC22
)

// New builds an engine for a spec, dataset and plan.
func New(spec Spec, ds *Dataset, plan Plan) (*Engine, error) { return core.New(spec, ds, plan) }

// Choose runs the cost-based optimizer and returns a complete plan
// for the simulated backend.
func Choose(spec Spec, ds *Dataset, top Topology) (Plan, error) { return core.Choose(spec, ds, top) }

// ChooseExecutor runs the cost-based optimizer for a specific
// execution backend; the parallel backend restricts the priced access
// methods to row-wise.
func ChooseExecutor(spec Spec, ds *Dataset, top Topology, exec ExecutorKind) (Plan, error) {
	return core.ChooseExecutor(spec, ds, top, exec)
}

// Explain returns the optimizer's cost estimates per access method.
func Explain(spec Spec, ds *Dataset, top Topology) []CostEstimate {
	return core.Explain(spec, ds, top)
}

// MachineByName looks up one of the paper's topologies ("local2", ...).
func MachineByName(name string) (Topology, error) { return numa.ByName(name) }

// Model specifications (Section 4.1's five models plus parallel sum).
func SVM() Spec         { return model.NewSVM() }
func LR() Spec          { return model.NewLR() }
func LS() Spec          { return model.NewLS() }
func LP() Spec          { return model.NewLP() }
func QP() Spec          { return model.NewQP() }
func ParallelSum() Spec { return model.NewParallelSum() }

// ModelByName constructs a spec from its short name ("svm", "lr", ...).
func ModelByName(name string) (Spec, error) { return model.ByName(name) }

// Synthetic analogs of the paper's evaluation datasets (Figure 10).
func RCV1() *Dataset            { return data.RCV1() }
func Reuters() *Dataset         { return data.Reuters() }
func Music() *Dataset           { return data.Music() }
func MusicRegression() *Dataset { return data.MusicRegression() }
func Forest() *Dataset          { return data.Forest() }
func AmazonLP() *Dataset        { return data.AmazonLP() }
func GoogleLP() *Dataset        { return data.GoogleLP() }
func AmazonQP() *Dataset        { return data.AmazonQP() }
func GoogleQP() *Dataset        { return data.GoogleQP() }
func ClueWeb(scale float64) *Dataset {
	return data.ClueWeb(scale)
}

// SubsampleSparsity thins each row's nonzeros to the given fraction,
// the paper's update-density sweep.
func SubsampleSparsity(d *Dataset, keep float64, seed int64) *Dataset {
	return data.SubsampleSparsity(d, keep, seed)
}

// SubsampleRows keeps a fraction of rows, the scalability sweep.
func SubsampleRows(d *Dataset, frac float64, seed int64) *Dataset {
	return data.SubsampleRows(d, frac, seed)
}

// Example is one prediction input: a sparse feature vector.
type Example = model.Example

// Predict scores a batch of examples against a model vector, mapping
// raw scores through the spec's prediction rule.
func Predict(spec Spec, x []float64, examples []Example) ([]float64, error) {
	return model.PredictBatch(spec, x, examples)
}
