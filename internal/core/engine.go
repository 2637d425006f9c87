package core

import (
	"fmt"
	"math/rand"
	"time"

	"dimmwitted/internal/data"
	"dimmwitted/internal/mat"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
)

// flopCycles is the simulated cycle cost of one arithmetic operation.
const flopCycles = 0.5

// csrOverhead is the word multiplier for reading CSR-stored data
// (4-byte column index per 8-byte value: 1.5 words per nonzero).
const csrOverhead = 1.5

// Engine executes one analytics workload under an execution plan, on a
// simulated NUMA machine or with real goroutine workers. Create one
// with New (GLM tasks) or NewWorkload (any workload), then drive it
// with RunEpoch or RunToLoss.
//
// An Engine is not safe for concurrent use.
type Engine struct {
	wl   Workload
	plan Plan
	mach *numa.Machine

	workers  []*worker
	replicas []*WorkState
	modelReg []*numa.Region
	auxReg   []*numa.Region
	bg       *numa.Core

	exec Executor

	global   []float64
	step     float64
	epoch    int
	cumTime  time.Duration
	cumWall  time.Duration
	cumStats model.Stats
	cumCtr   numa.Counters
	rng      *rand.Rand
	// rngSrc backs rng and tracks its stream position, so snapshots can
	// capture and restore the traversal randomness exactly.
	rngSrc *SeededSource
	// order is epochOrder's reusable traversal buffer.
	order []int
	// nodeWorkers and repWorkers group the workers by node, in
	// ascending node order, and by replica. Placement is fixed at
	// layout, so assignWork partitions through them every epoch.
	nodeWorkers [][]*worker
	repWorkers  [][]*worker
	// xs and avg are the reusable replica-vector list and average
	// buffer of the averaging worker and the end-of-epoch combine.
	xs  [][]float64
	avg []float64
	// lastLoss caches the objective computed at the last epoch end (or
	// restore), so Snapshot does not pay a second full-dataset pass per
	// checkpoint. Invalid until the first epoch or restore.
	lastLoss  float64
	lossValid bool

	// rec is the optional span recorder; nil means tracing is off and
	// every instrumentation site reduces to a pointer comparison.
	// recBufs are the parallel executor's private per-worker buffers,
	// merged into rec once per epoch after the barrier.
	rec     *trace.Recorder
	recBufs []*trace.WorkerBuf
	// phaseEnd is the end of the last engine-level span recorded in the
	// current epoch, handed from each phase to the next so the spans
	// tile the epoch without untimed gaps. Maintained only while
	// tracing.
	phaseEnd time.Time

	// leverage sampling state for Importance data replication.
	levCum []float64
}

// worker is one logical worker bound to a simulated core, a model
// replica (its locality group), and a data replica region.
type worker struct {
	id      int
	core    *numa.Core
	repIdx  int
	dataReg *numa.Region
	items   []int
	pos     int
	// cost is the worker's simulated-machine handles, built once at
	// layout; every simulated step charges through a pointer to it.
	cost StepCost
}

// New builds an engine for the classic GLM task: a model specification
// bound to a dataset. It is a thin wrapper over NewWorkload with the
// behavior-preserving GLM adapter.
func New(spec model.Spec, ds *data.Dataset, plan Plan) (*Engine, error) {
	return NewWorkload(NewGLM(spec, ds), plan)
}

// NewWorkload builds an engine for any workload. The plan is
// normalized (generic defaults, then the workload's) and validated;
// the locality groups — replicas, their simulated memory regions, and
// per-worker data regions — are laid out according to the plan's
// replication and placement choices. The workload binds to this engine
// (Bind, NewReplica) and must not be reused for another.
func NewWorkload(wl Workload, plan Plan) (*Engine, error) {
	plan = plan.normalizeCommon()
	plan = wl.NormalizePlan(plan)
	if err := plan.validateCommon(); err != nil {
		return nil, err
	}
	supported := false
	for _, a := range wl.Supports() {
		if a == plan.Access {
			supported = true
		}
	}
	if !supported {
		return nil, fmt.Errorf("core: %s does not support %s access", wl.Name(), plan.Access)
	}
	if err := wl.ValidatePlan(plan); err != nil {
		return nil, err
	}
	if plan.ModelRep == PerCluster {
		// PerCluster is a coordinator-level axis: one engine is one
		// machine, so the replica-per-machine layout cannot exist here.
		// The cluster coordinator decomposes a PerCluster plan into one
		// single-machine plan per peer and combines over the wire.
		return nil, fmt.Errorf("core: PerCluster replication spans machines; a single engine cannot run it — submit the job to a cluster coordinator (cmd/dwcoord)")
	}
	wl.Bind(plan)

	src := NewSeededSource(plan.Seed)
	e := &Engine{
		wl:     wl,
		plan:   plan,
		mach:   numa.New(plan.Machine),
		step:   plan.Step,
		rng:    rand.New(src),
		rngSrc: src,
	}

	// Workers spread evenly across nodes (the appendix's NUMA thread
	// protocol), node-minor so worker i sits on node i mod Nodes.
	nodes := plan.Machine.Nodes
	per := plan.Machine.CoresPerNode
	for i := 0; i < plan.Workers; i++ {
		node := i % nodes
		slot := i / nodes
		if slot >= per {
			return nil, fmt.Errorf("core: %d workers exceed capacity of %s", plan.Workers, plan.Machine.Name)
		}
		e.workers = append(e.workers, &worker{id: i, core: e.mach.Core(node*per + slot)})
	}

	// Model replicas: one per locality group, sized and contention-
	// estimated by the workload's layout.
	layout := wl.Layout()
	switch plan.ModelRep {
	case PerMachine:
		e.replicas = []*WorkState{wl.NewReplica(0, plan.Seed)}
		reg := e.mach.NewInterleavedRegion("model", layout.ModelBytes, numa.MachineShared)
		reg.WriteCollisionProb = layout.ModelCollisionProb
		e.modelReg = []*numa.Region{reg}
		if layout.AuxBytes > 0 {
			// The auxiliary residual cache is data-adjacent per-row
			// state with single-writer ownership per column step (the
			// role GraphLab's edge data plays); it lives with the data
			// and never pays the machine-shared contention factor.
			areg := e.mach.NewInterleavedRegion("aux", layout.AuxBytes, numa.NodeShared)
			e.auxReg = []*numa.Region{areg}
		}
		for _, w := range e.workers {
			w.repIdx = 0
		}
	case PerNode:
		usedNodes := nodes
		if plan.Workers < nodes {
			usedNodes = plan.Workers
		}
		for n := 0; n < usedNodes; n++ {
			e.replicas = append(e.replicas, wl.NewReplica(n, plan.Seed))
			e.modelReg = append(e.modelReg,
				e.mach.NewRegion(fmt.Sprintf("model-n%d", n), layout.ModelBytes, n, numa.NodeShared))
			if layout.AuxBytes > 0 {
				e.auxReg = append(e.auxReg,
					e.mach.NewRegion(fmt.Sprintf("aux-n%d", n), layout.AuxBytes, n, numa.NodeShared))
			}
		}
		for _, w := range e.workers {
			w.repIdx = w.core.Node % len(e.replicas)
		}
	case PerCore:
		for i, w := range e.workers {
			e.replicas = append(e.replicas, wl.NewReplica(i, plan.Seed))
			e.modelReg = append(e.modelReg,
				e.mach.NewRegion(fmt.Sprintf("model-c%d", i), layout.ModelBytes, w.core.Node, numa.Private))
			if layout.AuxBytes > 0 {
				e.auxReg = append(e.auxReg,
					e.mach.NewRegion(fmt.Sprintf("aux-c%d", i), layout.AuxBytes, w.core.Node, numa.Private))
			}
			w.repIdx = i
		}
	}

	// Data replicas: one region per worker. Under NUMA placement each
	// worker's data lives on its own node (Sharding places the shard
	// there; FullReplication places the node's full copy there); under
	// OS placement everything is interleaved.
	for _, w := range e.workers {
		if plan.Placement == PlacementOS {
			w.dataReg = e.mach.NewInterleavedRegion(fmt.Sprintf("data-w%d", w.id), layout.DataBytes, numa.Private)
		} else {
			w.dataReg = e.mach.NewRegion(fmt.Sprintf("data-w%d", w.id), layout.DataBytes, w.core.Node, numa.Private)
		}
		w.cost = StepCost{Core: w.core, DataReg: w.dataReg, ModelReg: e.modelReg[w.repIdx]}
		if e.auxReg != nil {
			w.cost.AuxReg = e.auxReg[w.repIdx]
		}
	}
	e.nodeWorkers = groupWorkers(e.workers, nodes, func(w *worker) int { return w.core.Node })
	e.repWorkers = groupWorkers(e.workers, len(e.replicas), func(w *worker) int { return w.repIdx })
	e.xs = make([][]float64, len(e.replicas))

	// The background core hosts the asynchronous model-averaging
	// worker (PerNode) and end-of-epoch combination.
	e.bg = e.mach.NewBackgroundCore(0)

	e.global = append([]float64(nil), e.replicas[0].X...)

	if plan.DataRep == Importance {
		if err := e.initLeverage(); err != nil {
			return nil, err
		}
	}

	// The executor is the last piece wired up: it mirrors the replica
	// layout built above, so both backends run the same locality
	// groups, work partition and combine path.
	if plan.Executor == ExecParallel {
		e.exec = newParallelExecutor(e)
	} else {
		e.exec = &simExecutor{e: e}
	}
	return e, nil
}

// groupWorkers buckets workers by key in [0, n), keeping worker order
// within a bucket, and drops the empty buckets: a node may have no
// worker, but every replica has one, so repWorkers stays indexed by
// replica.
func groupWorkers(ws []*worker, n int, key func(*worker) int) [][]*worker {
	groups := make([][]*worker, n)
	for _, w := range ws {
		groups[key(w)] = append(groups[key(w)], w)
	}
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

// SetRecorder attaches a span recorder: subsequent epochs attribute
// their wall clock to named phases, per worker goroutine. A nil
// recorder (the default) disables tracing at the cost of one pointer
// comparison per phase site — never per step. Attach before running
// epochs; the engine is not safe for concurrent use, so do not swap
// recorders mid-epoch.
func (e *Engine) SetRecorder(r *trace.Recorder) {
	e.rec = r
	e.recBufs = r.WorkerBufs(len(e.workers))
	if p, ok := e.exec.(*parallelExecutor); ok {
		// The pool multiplexes logical workers onto min(workers,
		// GOMAXPROCS) lanes; tell the recorder so derived barrier idle
		// is charged per concurrent lane, not per logical worker.
		r.SetParallelism(len(p.lanes))
	}
}

// Recorder returns the attached span recorder, or nil.
func (e *Engine) Recorder() *trace.Recorder { return e.rec }

// Close releases the engine's execution resources: the parallel
// executor's persistent worker pool drains and every pool goroutine
// exits before Close returns. Idempotent, a no-op for the simulated
// backend, and required for job-scoped engines (the scheduler defers
// it) so a cancelled or finished job never leaks parked goroutines.
// Running further epochs after Close is an error. Call from the
// goroutine that runs the engine's epochs.
func (e *Engine) Close() {
	if p, ok := e.exec.(*parallelExecutor); ok {
		p.close()
	}
}

// Grow adopts a larger published view of the workload's dataset. Call
// it only between epochs: the next RunEpochCtx re-partitions work from
// the workload's new Units(), so no running epoch ever observes a torn
// matrix. The cached loss is invalidated — the objective now spans the
// new rows.
func (e *Engine) Grow(view *data.Dataset) error {
	gw, ok := e.wl.(Growable)
	if !ok {
		return fmt.Errorf("core: %s workload cannot grow its dataset", e.wl.Kind())
	}
	if err := gw.Grow(view); err != nil {
		return err
	}
	e.lossValid = false
	return nil
}

// ProbeStats runs up to n steps of the given access method on a
// scratch replica and returns the average per-step traffic. Both the
// GLM workload's contention estimate and the cost-based optimizer use
// it; it mirrors the paper's install-time micro-benchmark.
func ProbeStats(spec model.Spec, ds *data.Dataset, access model.Access, n int) model.Stats {
	r := spec.NewReplica(ds)
	var total model.Stats
	count := 0
	if access == model.RowWise {
		if n > ds.Rows() {
			n = ds.Rows()
		}
		stride := ds.Rows() / n
		if stride == 0 {
			stride = 1
		}
		for i := 0; i < ds.Rows() && count < n; i += stride {
			total.Add(spec.RowStep(ds, i, r, 1e-6))
			count++
		}
	} else {
		cols := ds.Cols()
		if n > cols {
			n = cols
		}
		stride := cols / n
		if stride == 0 {
			stride = 1
		}
		for j := 0; j < cols && count < n; j += stride {
			total.Add(spec.ColStep(ds, j, r, 1e-6))
			count++
		}
	}
	if count == 0 {
		return model.Stats{}
	}
	return model.Stats{
		DataWords:   total.DataWords / count,
		ModelReads:  total.ModelReads / count,
		ModelWrites: total.ModelWrites / count,
		AuxReads:    total.AuxReads / count,
		AuxWrites:   total.AuxWrites / count,
		Flops:       total.Flops / count,
	}
}

// initLeverage computes leverage scores for Importance sampling and
// their cumulative distribution. Leverage is defined on data matrices,
// so Importance remains a GLM-only data-replication strategy.
func (e *Engine) initLeverage() error {
	glm, ok := e.wl.(*glmWorkload)
	if !ok {
		return fmt.Errorf("core: Importance data replication requires a GLM workload, not %s", e.wl.Kind())
	}
	ds := glm.ds
	if ds.Cols() > 2000 {
		return fmt.Errorf("core: leverage scores need a dense %dx%d Gram inverse; dimension too large", ds.Cols(), ds.Cols())
	}
	scores, err := mat.LeverageScores(ds.A, 1e-6)
	if err != nil {
		return err
	}
	e.levCum = make([]float64, len(scores)+1)
	for i, s := range scores {
		if s <= 0 {
			s = 1e-12
		}
		e.levCum[i+1] = e.levCum[i] + s
	}
	return nil
}

// Plan returns the normalized plan the engine runs.
func (e *Engine) Plan() Plan { return e.plan }

// Model returns the current combined state vector (valid after each
// epoch): the model for GLM/NN, the pooled marginal estimate for
// Gibbs.
func (e *Engine) Model() []float64 { return e.global }

// Loss evaluates the workload's objective on the current combined
// state. A GLM on a running parallel pool computes its row terms on the
// pool lanes; the result is bitwise the serial one.
func (e *Engine) Loss() float64 {
	if p, ok := e.exec.(*parallelExecutor); ok && p.started && !p.closed {
		if g, ok := e.wl.(*glmWorkload); ok {
			return p.laneLoss(g, e.global)
		}
	}
	return e.wl.Loss(e.global)
}

// Metrics returns the workload's extra quality metrics on the current
// combined state (nil for GLM).
func (e *Engine) Metrics() map[string]float64 { return e.wl.Metrics(e.global) }

// Workload returns the workload kind the engine runs.
func (e *Engine) Workload() WorkloadKind { return e.wl.Kind() }

// Replicas returns the number of model replicas (locality groups).
func (e *Engine) Replicas() int { return len(e.replicas) }

// Epoch returns the number of completed epochs.
func (e *Engine) Epoch() int { return e.epoch }

// SimTime returns the total simulated time of all epochs so far
// (zero under the parallel executor).
func (e *Engine) SimTime() time.Duration { return e.cumTime }

// WallTime returns the total measured wall-clock time of all epochs —
// the parallel executor's primary time axis.
func (e *Engine) WallTime() time.Duration { return e.cumWall }

// ExecutorKind returns the backend the engine runs on.
func (e *Engine) ExecutorKind() ExecutorKind { return e.exec.Kind() }

// Counters returns the PMU-style counters accumulated over all epochs.
func (e *Engine) Counters() numa.Counters { return e.cumCtr }

// Stats returns the traffic stats accumulated over all epochs.
func (e *Engine) Stats() model.Stats { return e.cumStats }
