package core

import (
	"fmt"
	"math/rand"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/vec"
)

// glmWorkload adapts the original "model.Spec over a data matrix" task
// to the Workload interface. It is behavior-preserving by construction:
// the step execution, cost charging, contention estimation and replica
// initialisation are the exact code the engine ran before the workload
// refactor, so simulated figure reproduction stays bit-identical.
type glmWorkload struct {
	spec model.Spec
	ds   *data.Dataset
	plan Plan
}

// NewGLM wraps a model specification and dataset as an engine workload.
func NewGLM(spec model.Spec, ds *data.Dataset) Workload {
	return &glmWorkload{spec: spec, ds: ds}
}

// Kind implements Workload.
func (g *glmWorkload) Kind() WorkloadKind { return WorkloadGLM }

// Name implements Workload.
func (g *glmWorkload) Name() string { return g.spec.Name() }

// DatasetName implements Workload.
func (g *glmWorkload) DatasetName() string { return g.ds.Name }

// Supports implements Workload.
func (g *glmWorkload) Supports() []model.Access { return g.spec.Supports() }

// NormalizePlan implements Workload by delegating to the spec-aware
// plan normalization (model-specific step sizes and decay).
func (g *glmWorkload) NormalizePlan(p Plan) Plan { return p.Normalize(g.spec) }

// ValidatePlan implements Workload: the spec-aware plan checks plus the
// dataset and Importance-sampling constraints the engine used to apply.
func (g *glmWorkload) ValidatePlan(p Plan) error {
	if err := p.Validate(g.spec); err != nil {
		return err
	}
	if err := g.ds.Validate(); err != nil {
		return err
	}
	if p.DataRep == Importance && p.Access != model.RowWise {
		return fmt.Errorf("core: Importance data replication requires row-wise access")
	}
	return nil
}

// Optimize implements Workload via the Figure 6 cost-based optimizer.
func (g *glmWorkload) Optimize(top numa.Topology, exec ExecutorKind) (Plan, error) {
	return ChooseExecutor(g.spec, g.ds, top, exec)
}

// Bind implements Workload.
func (g *glmWorkload) Bind(p Plan) { g.plan = p }

// Units implements Workload: rows for row-wise access, columns for the
// coordinate methods.
func (g *glmWorkload) Units() int {
	if g.plan.Access != model.RowWise {
		return g.ds.Cols()
	}
	return g.ds.Rows()
}

// Dim implements Workload.
func (g *glmWorkload) Dim() int { return len(g.spec.NewReplica(g.ds).X) }

// DataNNZ implements Workload.
func (g *glmWorkload) DataNNZ() int64 { return g.ds.NNZ() }

// Layout implements Workload: region sizes from the replica prototype
// and the install-time probe's contention estimate for machine-shared
// models.
func (g *glmWorkload) Layout() Layout {
	proto := g.spec.NewReplica(g.ds)
	dim := len(proto.X)
	probe := ProbeStats(g.spec, g.ds, g.plan.Access, 64)
	return Layout{
		ModelBytes: int64(dim) * numa.WordBytes,
		AuxBytes:   int64(len(proto.Aux)) * numa.WordBytes,
		DataBytes:  g.ds.A.Bytes(),
		ModelCollisionProb: collisionProb(g.plan.Workers, probe.ModelWrites,
			effectiveModelWords(g.ds, g.plan.Access, dim)),
	}
}

// NewReplica implements Workload. GLM replica initialisation is
// deterministic per spec, so every replica starts identical regardless
// of index or seed.
func (g *glmWorkload) NewReplica(int, int64) *WorkState {
	r := g.spec.NewReplica(g.ds)
	return &WorkState{X: r.X, Aux: r.Aux, Priv: r}
}

// Step implements Workload: one row/column step plus (under the
// simulated executor) the exact Figure 6 cost charging the engine used
// to apply inline.
func (g *glmWorkload) Step(unit int, ws *WorkState, step float64, _ *rand.Rand, cost *StepCost) model.Stats {
	rep := ws.Priv.(*model.Replica)
	var st model.Stats
	if g.plan.Access == model.RowWise {
		st = g.spec.RowStep(g.ds, unit, rep, step)
	} else {
		st = g.spec.ColStep(g.ds, unit, rep, step)
	}
	if cost != nil {
		g.charge(cost, st)
	}
	return st
}

// charge converts a step's traffic stats into simulated machine costs.
func (g *glmWorkload) charge(c *StepCost, st model.Stats) {
	dataWords := int64(float64(st.DataWords) * csrOverhead)
	if g.plan.DenseStorage {
		// Dense storage streams the full row/column width regardless
		// of sparsity, with no index overhead (Appendix A).
		if g.plan.Access == model.RowWise {
			dataWords = int64(g.ds.Cols())
		} else {
			dataWords = int64(g.ds.Rows())
		}
	}
	c.Core.ReadStream(c.DataReg, dataWords)

	c.Core.ReadCached(c.ModelReg, int64(st.ModelReads))
	c.Core.Write(c.ModelReg, int64(st.ModelWrites))
	if st.AuxReads > 0 || st.AuxWrites > 0 {
		c.Core.ReadCached(c.AuxReg, int64(st.AuxReads))
		c.Core.Write(c.AuxReg, int64(st.AuxWrites))
	}
	c.Core.Compute(float64(st.Flops)*flopCycles + g.plan.StepOverheadCycles +
		float64(st.DataWords)*g.plan.ElementOverheadCycles)
}

// SparseUnits implements UnitCoordser: row-wise steps of a sparse-
// update spec read and write the model only at the row's nonzero
// columns (every row step is built on SparseDot/SparseAXPY over the
// row's index list), and RowSteps marks a writing row's columns.
// Dense-update specs (parallel sum) and column access touch state
// outside any per-unit set, so they stay on the dense flush path — as
// does dense *data*, where rows cover most of the model and per-step
// dirty tracking would cost more than the full single-pass flush it
// avoids.
func (g *glmWorkload) SparseUnits() bool {
	if g.plan.Access != model.RowWise || g.spec.DenseUpdate() {
		return false
	}
	// Sparse flushing pays off only when a chunk's dirty set stays well
	// under the model dimension: require rows to average < 1/4 of it.
	return g.ds.NNZ()*4 < int64(g.ds.Rows())*int64(g.ds.Cols())
}

// StepUnits implements UnitStepper: one RowSteps call over the units.
// The parallel executor, its only caller, runs row-wise access alone
// (Plan.Validate), so units are rows.
func (g *glmWorkload) StepUnits(units []int, ws *WorkState, step float64, dirty *vec.Dirty) model.Stats {
	return g.spec.RowSteps(g.ds, units, ws.Priv.(*model.Replica), step, dirty)
}

// TouchUnits implements UnitToucher for row-wise access: each row's
// RowPtr pair, the first and last of its ColIdx and Vals entries, and
// its label. Under a random permutation every row otherwise costs a
// chain of dependent misses (RowPtr, then the row's data) inside Step;
// here the rows' loads are independent and overlap. The dataset is read
// at call time, so a view adopted by Grow is covered. Column access
// touches nothing.
func (g *glmWorkload) TouchUnits(units []int) float64 {
	if g.plan.Access != model.RowWise {
		return 0
	}
	a := g.ds.A
	rowPtr, colIdx, vals := a.RowPtr, a.ColIdx, a.Vals
	var idx int64
	var sum float64
	for _, u := range units {
		lo, hi := rowPtr[u], rowPtr[u+1]
		if lo < hi {
			idx += int64(colIdx[lo]) + int64(colIdx[hi-1])
			sum += vals[lo] + vals[hi-1]
		}
	}
	// LP and QP datasets carry no labels.
	if labels := g.ds.Labels; labels != nil {
		for _, u := range units {
			sum += labels[u]
		}
	}
	return sum + float64(idx)
}

// Sync implements Workload: one-pass aggregates combine once, the
// iterative estimators average with write-back.
func (g *glmWorkload) Sync() SyncMode {
	if g.spec.Aggregate() {
		return SyncAggregate
	}
	return SyncAverage
}

// Concurrency implements Workload.
func (g *glmWorkload) Concurrency() ConcurrencyMode { return ConcurrencyDelta }

// Combine implements Workload.
func (g *glmWorkload) Combine(xs [][]float64, dst []float64) { g.spec.Combine(xs, dst) }

// EndEpoch implements Workload; GLM has no end-of-epoch state refresh.
func (g *glmWorkload) EndEpoch([]*WorkState) {}

// AuxRefresh implements Workload: column access keeps per-row auxiliary
// state that must be rebuilt from a newly written-back model; row
// access leaves aux unused (unless force, for snapshot restore).
func (g *glmWorkload) AuxRefresh(ws *WorkState, force bool) bool {
	if ws.Aux == nil {
		return false
	}
	if !force && g.plan.Access == model.RowWise {
		return false
	}
	g.spec.RefreshAux(g.ds, ws.Priv.(*model.Replica))
	return true
}

// Loss implements Workload.
func (g *glmWorkload) Loss(x []float64) float64 { return g.spec.Loss(g.ds, x) }

// DataRows implements DataVersioner.
func (g *glmWorkload) DataRows() int { return g.ds.Rows() }

// DataVersion implements DataVersioner.
func (g *glmWorkload) DataVersion() uint64 { return g.ds.Version }

// Grow implements Growable: between epochs the workload can adopt a
// larger published view of its dataset. The swap is safe exactly when
// nothing engine-side is sized to the old row count: access must be
// row-wise (work units are rows, re-partitioned from Units() at every
// epoch start; column units would change meaning), the replicas must
// carry no per-row auxiliary state (LS and LP index Aux[row]), and the
// data-replication strategy must not be Importance (leverage scores
// are precomputed over the old rows). Model dimension is pinned by the
// stream's fixed column count.
func (g *glmWorkload) Grow(view *data.Dataset) error {
	switch {
	case view.Name != g.ds.Name:
		return fmt.Errorf("core: grow: view is dataset %q, training on %q", view.Name, g.ds.Name)
	case view.Task != g.ds.Task:
		return fmt.Errorf("core: grow: task changed from %s to %s", g.ds.Task, view.Task)
	case view.Cols() != g.ds.Cols():
		return fmt.Errorf("core: grow: cols changed from %d to %d", g.ds.Cols(), view.Cols())
	case view.Rows() < g.ds.Rows():
		return fmt.Errorf("core: grow: rows shrank from %d to %d", g.ds.Rows(), view.Rows())
	case view.Version < g.ds.Version:
		return fmt.Errorf("core: grow: version went backwards (%d -> %d)", g.ds.Version, view.Version)
	case g.plan.Access != model.RowWise:
		return fmt.Errorf("core: grow: requires row-wise access, plan uses %s", g.plan.Access)
	case g.plan.DataRep == Importance:
		return fmt.Errorf("core: grow: Importance sampling pins precomputed leverage scores")
	}
	if proto := g.spec.NewReplica(view); proto.Aux != nil {
		return fmt.Errorf("core: grow: spec %s keeps per-row auxiliary state", g.spec.Name())
	}
	if err := view.Validate(); err != nil {
		return fmt.Errorf("core: grow: %w", err)
	}
	g.ds = view
	return nil
}

// Metrics implements Workload; the GLM loss is the whole story.
func (g *glmWorkload) Metrics([]float64) map[string]float64 { return nil }

// collisionProb estimates the probability that a write to a machine-
// shared region collides with a concurrent writer on another socket.
// It is proportional to the number of concurrent writers and to the
// update footprint relative to the *effective* region size — the
// inverse Herfindahl index of the write-frequency distribution, so a
// Zipf-skewed text model (everyone hammering the same hot columns)
// contends as if the model were a few dozen words wide, while a
// uniform graph model contends on its full width. Sub-cacheline
// footprints are discounted (single-word updates rarely collide, the
// mechanism behind Figure 16(b)), and the estimate is capped at 0.5 —
// even a fully contended workload overlaps writes only part of the
// time.
func collisionProb(workers, writesPerStep int, effWords float64) float64 {
	if effWords <= 0 || writesPerStep <= 0 || workers <= 1 {
		return 0
	}
	w := float64(writesPerStep)
	x := float64(workers-1) * w / effWords
	if lineFrac := w / 8; lineFrac < 1 {
		x *= lineFrac
	}
	// Saturating curve: p rises smoothly with contention pressure and
	// approaches 0.5 ("at most half of writes stall") — two workers on
	// a hot model contend noticeably, twelve contend almost maximally,
	// but the jump from one worker (p = 0) stays finite.
	return 0.5 * x / (1 + x)
}

// effectiveModelWords returns the effective number of uniformly hot
// model words under row-wise access: 1/Σ_j q_j² with q_j proportional
// to column j's nonzero count (model word j is written once per row
// containing j). Under column access every component is written once
// per epoch, so the distribution is uniform and the effective size is
// the dimension itself.
func effectiveModelWords(ds *data.Dataset, access model.Access, dim int) float64 {
	if access != model.RowWise {
		return float64(dim)
	}
	csc := ds.CSC()
	total := float64(ds.NNZ())
	if total == 0 {
		return float64(dim)
	}
	var s float64
	for j := 0; j < ds.Cols(); j++ {
		q := float64(csc.ColNNZ(j)) / total
		s += q * q
	}
	if s <= 0 {
		return float64(dim)
	}
	return 1 / s
}

// effectiveAuxWords is the analog for per-row auxiliary state under
// column access: aux word i is written once per column row i touches,
// so q_i is proportional to the row's nonzero count.
func effectiveAuxWords(ds *data.Dataset, auxLen int) float64 {
	total := float64(ds.NNZ())
	if total == 0 || auxLen == 0 {
		return float64(auxLen)
	}
	var s float64
	for i := 0; i < ds.Rows(); i++ {
		q := float64(ds.A.RowNNZ(i)) / total
		s += q * q
	}
	if s <= 0 {
		return float64(auxLen)
	}
	return 1 / s
}
