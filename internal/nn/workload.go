// Package-level workload adapter: neural-network training as a
// core.Workload. The old Trainer carried its own epoch loop, replica
// averaging and cost charging; all of that now lives in the engine —
// network replicas map onto the plan's model replicas (PerNode is the
// paper's layout, PerMachine the classical LeCun one), examples onto
// work units of the shared partitioner, and the flat parameter vector
// onto the engine's combined state, so end-of-epoch averaging is the
// engine's standard model-replication path.
package nn

import (
	"fmt"
	"math/rand"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/vec"
)

// WorkloadConfig parameterises NewWorkload.
type WorkloadConfig struct {
	// Sizes is the network architecture; nil means LeCunSizes.
	Sizes []int
	// Seed drives network initialisation (traversal randomness is the
	// plan's seed).
	Seed int64
}

// Workload trains a feed-forward network through the core engine,
// charging per-example costs: the example read, the dense forward read
// of every parameter, and the dense backward write of every parameter
// — the fully dense update pattern that makes the machine-shared
// layout so expensive. A Workload instance binds to one engine; build
// a new one per run.
type Workload struct {
	ds    *Dataset
	sizes []int
	seed  int64
	plan  core.Plan
	eval  *Network
}

// nnState is one replica's private state: the network whose parameters
// alias the replica's X vector, plus its training scratch.
type nnState struct {
	net *Network
	sc  *scratch
}

// NewWorkload wraps a labelled image dataset as an engine workload.
func NewWorkload(ds *Dataset, cfg WorkloadConfig) (*Workload, error) {
	if len(ds.Images) == 0 {
		return nil, fmt.Errorf("nn: empty dataset")
	}
	if cfg.Sizes == nil {
		cfg.Sizes = LeCunSizes()
	}
	if len(ds.Images[0]) != cfg.Sizes[0] {
		return nil, fmt.Errorf("nn: input dim %d != first layer %d", len(ds.Images[0]), cfg.Sizes[0])
	}
	return &Workload{ds: ds, sizes: cfg.Sizes, seed: cfg.Seed}, nil
}

// Kind implements core.Workload.
func (w *Workload) Kind() core.WorkloadKind { return core.WorkloadNN }

// Name implements core.Workload.
func (w *Workload) Name() string { return "nn" }

// DatasetName implements core.Workload.
func (w *Workload) DatasetName() string {
	if w.ds.Name != "" {
		return w.ds.Name
	}
	return "images"
}

// Supports implements core.Workload: back-propagation consumes one
// example (row) per step.
func (w *Workload) Supports() []model.Access { return []model.Access{model.RowWise} }

// NormalizePlan implements core.Workload with the trainer's historical
// defaults. SyncRounds defaults to -1: network replicas meet at the
// end-of-epoch combine only, the paper's Section 5.2 protocol (set it
// positive to opt into mid-epoch averaging).
func (w *Workload) NormalizePlan(p core.Plan) core.Plan {
	p.Access = model.RowWise
	if p.Step == 0 {
		p.Step = 0.05
	}
	if p.StepDecay == 0 {
		p.StepDecay = 0.95
	}
	if p.ChunkSize == 0 {
		p.ChunkSize = 16
	}
	if p.SyncRounds == 0 {
		p.SyncRounds = -1
	}
	return p
}

// ValidatePlan implements core.Workload.
func (w *Workload) ValidatePlan(p core.Plan) error {
	if p.DataRep == core.Importance {
		return fmt.Errorf("nn: Importance data replication is undefined for network training (no leverage scores)")
	}
	return nil
}

// Optimize implements core.Workload: the fully dense update writes
// every parameter on every example, so a machine-shared network
// serialises on write collisions while per-node replicas with full
// data copies train locally and average — the >10x of Figure 17(b).
// PerNode/FullReplication degrades gracefully to a single replica on
// one-socket machines.
func (w *Workload) Optimize(top numa.Topology, exec core.ExecutorKind) (core.Plan, error) {
	return core.Plan{
		Access:   model.RowWise,
		ModelRep: core.PerNode,
		DataRep:  core.FullReplication,
		Machine:  top,
		Executor: exec,
	}, nil
}

// Bind implements core.Workload.
func (w *Workload) Bind(p core.Plan) { w.plan = p }

// Units implements core.Workload: one unit per training example.
func (w *Workload) Units() int { return len(w.ds.Images) }

// Dim implements core.Workload: the combined state is the flat
// parameter vector.
func (w *Workload) Dim() int { return paramCount(w.sizes) }

// DataNNZ implements core.Workload: the dense example matrix.
func (w *Workload) DataNNZ() int64 { return int64(len(w.ds.Images) * w.sizes[0]) }

// NumNeurons returns the neuron activations computed per example — the
// unit of Figure 17(b)'s throughput metric.
func (w *Workload) NumNeurons() int {
	total := 0
	for _, s := range w.sizes[1:] {
		total += s
	}
	return total
}

// Layout implements core.Workload. Back-prop touches every parameter
// of every layer on every example: the update is fully dense, so
// concurrent writers on different sockets collide constantly.
func (w *Workload) Layout() core.Layout {
	collision := 0.0
	if w.plan.Workers > 1 {
		collision = 1
	}
	return core.Layout{
		ModelBytes:         int64(paramCount(w.sizes)) * numa.WordBytes,
		DataBytes:          int64(len(w.ds.Images)*w.sizes[0]) * numa.WordBytes,
		ModelCollisionProb: collision,
	}
}

// NewReplica implements core.Workload: every replica (and every
// parallel working copy) starts from the same seeded network, whose
// flat parameters are the replica's X vector.
func (w *Workload) NewReplica(int, int64) *core.WorkState {
	net := NewNetwork(w.sizes, w.seed)
	return &core.WorkState{X: net.Params(), Priv: &nnState{net: net, sc: newScratch(w.sizes)}}
}

// Step implements core.Workload: one forward/backward pass on the
// replica's network, charging the dense parameter traffic.
func (w *Workload) Step(unit int, ws *core.WorkState, step float64, _ *rand.Rand, cost *core.StepCost) model.Stats {
	st := ws.Priv.(*nnState)
	touched := st.net.SGDStep(w.ds.Images[unit], w.ds.Labels[unit], step, st.sc)
	params := len(ws.X)
	inputWords := w.sizes[0]
	if cost != nil {
		cost.Core.ReadStream(cost.DataReg, int64(inputWords))
		cost.Core.ReadCached(cost.ModelReg, int64(params)) // forward + backward read
		cost.Core.Write(cost.ModelReg, int64(touched))     // dense gradient write
		cost.Core.Compute(float64(params) * 4)             // multiply-accumulate both passes
	}
	return model.Stats{
		DataWords:   inputWords,
		ModelReads:  params,
		ModelWrites: touched,
		Flops:       params * 4,
	}
}

// StepUnits implements core.UnitStepper: Step over each unit. The
// network's update is dense, so there are no coordinate sets and dirty
// is always nil.
func (w *Workload) StepUnits(units []int, ws *core.WorkState, step float64, _ *vec.Dirty) model.Stats {
	var st model.Stats
	for _, u := range units {
		st.Add(w.Step(u, ws, step, nil, nil))
	}
	return st
}

// Sync implements core.Workload: network replicas average, Bismarck
// style.
func (w *Workload) Sync() core.SyncMode { return core.SyncAverage }

// Concurrency implements core.Workload: parallel workers train private
// copies and flush batched parameter deltas to the shared atomic
// master.
func (w *Workload) Concurrency() core.ConcurrencyMode { return core.ConcurrencyDelta }

// Combine implements core.Workload: element-wise parameter mean.
func (w *Workload) Combine(xs [][]float64, dst []float64) { vec.Average(dst, xs...) }

// EndEpoch implements core.Workload; nothing to refresh — the replicas'
// X vectors are the parameters themselves.
func (w *Workload) EndEpoch([]*core.WorkState) {}

// AuxRefresh implements core.Workload; networks keep no engine-visible
// auxiliary state.
func (w *Workload) AuxRefresh(*core.WorkState, bool) bool { return false }

// evalNet returns the lazily allocated evaluation network whose
// parameters are overwritten per evaluation.
func (w *Workload) evalNet(x []float64) *Network {
	if w.eval == nil {
		w.eval = NewNetwork(w.sizes, w.seed)
	}
	copy(w.eval.Params(), x)
	return w.eval
}

// Loss implements core.Workload: mean cross-entropy of the combined
// network over the dataset.
func (w *Workload) Loss(x []float64) float64 { return w.evalNet(x).Loss(w.ds) }

// Metrics implements core.Workload with the classification accuracy of
// the combined network.
func (w *Workload) Metrics(x []float64) map[string]float64 {
	return map[string]float64{"accuracy": w.evalNet(x).Accuracy(w.ds)}
}

// PredictBatch scores prediction examples against a frozen parameter
// vector (a registry snapshot): each example must be a dense image of
// the input dimension, and the prediction is the argmax class index.
// Safe for concurrent use — every call builds its own network view.
func (w *Workload) PredictBatch(x []float64, examples []model.Example) ([]float64, error) {
	return PredictBatch(w.sizes, x, examples)
}

// PredictBatch scores dense examples against a flat parameter vector
// for the given architecture, returning argmax class indices.
func PredictBatch(sizes []int, params []float64, examples []model.Example) ([]float64, error) {
	if len(params) != paramCount(sizes) {
		return nil, fmt.Errorf("nn: parameter vector has %d values, architecture %v needs %d",
			len(params), sizes, paramCount(sizes))
	}
	net := NewNetwork(sizes, 0)
	copy(net.Params(), params)
	out := make([]float64, 0, len(examples))
	for i, ex := range examples {
		dense, err := ex.DenseVector(sizes[0])
		if err != nil {
			return nil, fmt.Errorf("nn: example %d: %w", i, err)
		}
		out = append(out, float64(net.Predict(dense)))
	}
	return out, nil
}
