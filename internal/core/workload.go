package core

import (
	"fmt"
	"math/rand"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/vec"
)

// WorkloadKind identifies a workload family. It is threaded through
// plan validation, optimizer costing, engine snapshots and the serving
// layer's feedback keys, so heterogeneous analytics never alias each
// other's measured plan costs.
type WorkloadKind int

const (
	// WorkloadGLM is the first-order generalized-linear-model family
	// (SVM, LR, LS, LP, QP, parallel sum): a model.Spec over a data
	// matrix. The simulated figure-reproduction path runs here.
	WorkloadGLM WorkloadKind = iota
	// WorkloadGibbs is Gibbs sampling over a factor graph (Section 5.1):
	// chains map onto model replicas, variables onto work units.
	WorkloadGibbs
	// WorkloadNN is back-propagation SGD over a feed-forward network
	// (Section 5.2): network replicas map onto model replicas, examples
	// onto work units.
	WorkloadNN
)

// String implements fmt.Stringer.
func (k WorkloadKind) String() string {
	switch k {
	case WorkloadGLM:
		return "glm"
	case WorkloadGibbs:
		return "gibbs"
	case WorkloadNN:
		return "nn"
	default:
		return fmt.Sprintf("WorkloadKind(%d)", int(k))
	}
}

// WorkloadByName maps the serving API's workload names. The empty
// string means the GLM default.
func WorkloadByName(name string) (WorkloadKind, error) {
	switch name {
	case "", "glm":
		return WorkloadGLM, nil
	case "gibbs":
		return WorkloadGibbs, nil
	case "nn":
		return WorkloadNN, nil
	default:
		return 0, fmt.Errorf("core: unknown workload %q (want glm, gibbs, or nn)", name)
	}
}

// SyncMode tells the engine how replicas meet at synchronization
// points.
type SyncMode int

const (
	// SyncAverage combines replicas into the global state and writes the
	// combination back (Bismarck-style averaging for iterative
	// estimators: GLM SGD/SCD, NN back-prop). PerNode plans additionally
	// run the asynchronous mid-epoch averaging worker.
	SyncAverage SyncMode = iota
	// SyncAggregate zeroes replicas at epoch start and combines them
	// exactly once at epoch end with no write-back (one-pass aggregates
	// whose Combine is not idempotent: parallel sum).
	SyncAggregate
	// SyncPool combines replicas for reading only: the global state is
	// a pooled estimate, but replicas stay independent (Gibbs chains,
	// which must never be averaged into each other).
	SyncPool
)

// ConcurrencyMode tells the parallel executor how workers sharing a
// replica run concurrently.
type ConcurrencyMode int

const (
	// ConcurrencyDelta trains on private per-worker working copies and
	// pushes batched deltas to a shared atomic master every ChunkSize
	// steps — the Hogwild! memory model for vector-state workloads.
	ConcurrencyDelta ConcurrencyMode = iota
	// ConcurrencyShared steps directly on the shared replica state; the
	// workload's Step must itself be race-safe for concurrent
	// same-replica callers (Gibbs chains with atomic assignments).
	ConcurrencyShared
)

// WorkState is one replica's mutable state: the combined-vector view X
// the engine partitions, averages/pools and snapshots, optional GLM
// auxiliary state, and workload-private state behind Priv (a Gibbs
// chain, an NN network whose parameters alias X).
type WorkState struct {
	// X is the replica's state vector: the model for GLM and NN (NN
	// parameters are flat-backed so X is the network), the marginal
	// estimate for Gibbs.
	X []float64
	// Aux is per-row auxiliary state (GLM column access), or nil.
	Aux []float64
	// Priv is workload-private state the engine never touches.
	Priv any
}

// Layout describes a workload's simulated-memory footprint: how big
// the model/aux/data regions are and how contended a machine-shared
// model region would be. The engine turns it into numa.Regions
// according to the plan's replication and placement choices.
type Layout struct {
	// ModelBytes is the size of one model replica's region.
	ModelBytes int64
	// AuxBytes is the size of one replica's auxiliary region (0: none).
	AuxBytes int64
	// DataBytes is the size of one worker's immutable-data region.
	DataBytes int64
	// ModelCollisionProb estimates the probability that a write to a
	// machine-shared model region collides with a concurrent writer on
	// another socket (PerMachine replication only).
	ModelCollisionProb float64
}

// StepCost carries the simulated-machine handles a workload charges one
// step's traffic to. It is nil under the parallel executor, whose time
// axis is the wall clock.
type StepCost struct {
	// Core is the worker's simulated core.
	Core *numa.Core
	// DataReg is the worker's immutable-data region.
	DataReg *numa.Region
	// ModelReg is the worker's replica's model region.
	ModelReg *numa.Region
	// AuxReg is the worker's replica's auxiliary region, or nil.
	AuxReg *numa.Region
}

// Workload is one analytics task the engine can execute: a partition
// domain of work units, per-replica mutable state, a per-unit update
// step, an end-of-epoch combine and a quality metric. The engine owns
// everything around the steps — work partitioning, replica layout and
// locality groups, executors (simulated or parallel), synchronization
// and step decay — so a new workload is an adapter, not a training
// loop.
//
// A Workload instance binds to exactly one engine: NewWorkload calls
// Bind and NewReplica, and implementations may keep replica handles
// (Gibbs chains) for workload-specific accessors.
type Workload interface {
	// Kind identifies the workload family.
	Kind() WorkloadKind
	// Name identifies the task for snapshots ("svm", "gibbs", "nn").
	Name() string
	// DatasetName identifies the data the task runs over.
	DatasetName() string
	// Supports lists the access methods the workload implements.
	Supports() []model.Access

	// NormalizePlan fills workload-specific plan defaults (access
	// method, step size and decay, chunk size); the engine fills the
	// generic ones (machine, workers, seed) first.
	NormalizePlan(p Plan) Plan
	// ValidatePlan rejects plans the workload cannot execute, beyond
	// the engine's generic checks.
	ValidatePlan(p Plan) error
	// Optimize is the workload's cost-based optimizer: a complete plan
	// for the topology and execution backend.
	Optimize(top numa.Topology, exec ExecutorKind) (Plan, error)

	// Bind fixes the normalized, validated plan the engine will run.
	// The engine calls it once, before Units/Dim/Layout/NewReplica.
	Bind(p Plan)
	// Units is the number of partitionable work units in one epoch's
	// domain (rows or columns for GLM, variables for Gibbs, examples
	// for NN).
	Units() int
	// Dim is the length of the combined state vector.
	Dim() int
	// DataNNZ is the nonzero volume of the immutable data, used for
	// cache keys and auxiliary-rebuild cost accounting.
	DataNNZ() int64
	// Layout describes the simulated-memory footprint under the bound
	// plan.
	Layout() Layout

	// NewReplica allocates replica repIdx's state, seeded from the
	// plan's seed. The parallel executor also uses it for per-worker
	// working copies under ConcurrencyDelta.
	NewReplica(repIdx int, seed int64) *WorkState
	// Step executes one work unit on the replica at the given step
	// size, charging simulated costs to cost (nil under the parallel
	// executor) and returning the step's traffic stats. rng is a
	// per-worker source supplied by the parallel executor for
	// ConcurrencyShared workloads; it is nil under the simulated
	// executor, where workloads use replica-private randomness for
	// determinism.
	Step(unit int, ws *WorkState, step float64, rng *rand.Rand, cost *StepCost) model.Stats

	// Sync selects how replicas meet; Concurrency selects how the
	// parallel executor runs same-replica workers.
	Sync() SyncMode
	Concurrency() ConcurrencyMode
	// Combine merges replica state vectors into dst.
	Combine(xs [][]float64, dst []float64)
	// EndEpoch runs once per epoch after every unit has executed and
	// before the combine (Gibbs refreshes marginal tallies here).
	EndEpoch(reps []*WorkState)
	// AuxRefresh recomputes a replica's auxiliary state from its model
	// after a write-back, returning whether it did anything (the engine
	// then charges the standard rebuild cost). force requests the
	// rebuild regardless of access method (snapshot restore).
	AuxRefresh(ws *WorkState, force bool) bool

	// Loss evaluates the primary objective of the combined state.
	Loss(x []float64) float64
	// Metrics returns workload-appropriate extra quality metrics of the
	// combined state (NN accuracy, Gibbs marginal summaries), or nil.
	Metrics(x []float64) map[string]float64
}

// UnitStepper is implemented by every ConcurrencyDelta workload: the
// parallel executor steps each flush segment of a claimed chunk with
// one StepUnits call instead of one Step per unit.
type UnitStepper interface {
	// StepUnits runs Step(unit, ws, step, nil, nil) for each of units
	// in order and returns the summed stats. When dirty is non-nil
	// (only for a UnitCoordser whose SparseUnits holds) it also marks
	// there the coordinates of X each writing step wrote.
	StepUnits(units []int, ws *WorkState, step float64, dirty *vec.Dirty) model.Stats
}

// UnitCoordser is optionally implemented by ConcurrencyDelta workloads
// whose work units each touch a small, statically known coordinate set
// of the state vector. When SparseUnits holds, the parallel executor
// hands StepUnits a dirty set and flushes and refreshes only the
// coordinates marked there — a sparse row then costs O(nnz) per flush
// instead of O(dim).
//
// Implementations must therefore guarantee that a step reads and
// writes X only at its unit's coordinate set, that a step reporting
// ModelWrites == 0 left X unchanged, and that StepUnits marks every
// coordinate a writing step changed.
type UnitCoordser interface {
	// SparseUnits reports whether per-unit coordinate sets apply under
	// the bound plan (e.g. GLM row-wise steps over CSR rows; false for
	// dense-update specs, whose steps touch the full dimension).
	SparseUnits() bool
}

// UnitToucher is optionally implemented by ConcurrencyDelta workloads
// whose steps are bound by the latency of fetching each unit's data
// rather than by arithmetic. The parallel executor calls it once per
// claimed chunk, before stepping the chunk, so the chunk's cache misses
// overlap in one independent-load loop instead of stalling each Step in
// turn. It must not change any state: the same units then step in the
// same order with the same arithmetic.
type UnitToucher interface {
	// TouchUnits reads each unit's data so that the following Step
	// calls hit cache, returning a value derived from the loads so the
	// compiler cannot drop them.
	TouchUnits(units []int) float64
}

// EpochOrderer is optionally implemented by workloads that supply each
// replica's traversal order themselves instead of using the engine's
// shared permutation. Gibbs chains draw their sweep permutation from
// the chain's own generator, preserving the classic sampler's
// determinism; when implemented, FullReplication partitions the
// returned order among the replica's workers (so a PerCore chain
// sweeps the whole domain) and Sharding uses replica 0's order. The
// engine copies the order into worker queues before the next call, so
// an implementation may return the same reused buffer every epoch.
type EpochOrderer interface {
	EpochOrder(repIdx int) []int
}

// Growable is optionally implemented by workloads that can adopt a
// larger immutable view of their dataset between epochs (streaming
// ingestion). Implementations must reject any swap that would
// invalidate engine-side state sized to the old view; on success the
// next epoch's work assignment covers the new rows automatically,
// because assignWork re-reads Units() at every epoch start.
type Growable interface {
	Grow(view *data.Dataset) error
}

// DataVersioner is optionally implemented by workloads trained on a
// versioned dataset view. Snapshots record the pair so online resume
// can rebuild the exact matrix the checkpoint trained on (the ingest
// high-water mark) and replay nothing.
type DataVersioner interface {
	DataRows() int
	DataVersion() uint64
}

// ChooseWorkload runs the workload's cost-based optimizer for a
// topology and execution backend — the workload-generic analog of
// ChooseExecutor.
func ChooseWorkload(wl Workload, top numa.Topology, exec ExecutorKind) (Plan, error) {
	return wl.Optimize(top, exec)
}
