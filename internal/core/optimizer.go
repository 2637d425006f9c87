package core

import (
	"fmt"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// CostEstimate is the optimizer's per-epoch cost prediction for one
// access method, in abstract word-cost units (Figure 6's model: reads
// count once, writes count alpha times).
type CostEstimate struct {
	// Access is the access method estimated.
	Access model.Access
	// Reads is the predicted words read per epoch.
	Reads float64
	// Writes is the predicted words written per epoch.
	Writes float64
	// Cost is Reads + alpha*Writes.
	Cost float64
}

// EstimateCost predicts the per-epoch cost of running the spec on the
// dataset with the given access method, using a probe sample of steps
// (the paper's install-time benchmark) and the machine's alpha.
func EstimateCost(spec model.Spec, ds *data.Dataset, access model.Access, top numa.Topology) CostEstimate {
	st := ProbeStats(spec, ds, access, 64)
	stepsPerEpoch := float64(ds.Rows())
	if access != model.RowWise {
		stepsPerEpoch = float64(ds.Cols())
	}
	reads := stepsPerEpoch * float64(st.DataWords+st.ModelReads+st.AuxReads)
	writes := stepsPerEpoch * float64(st.ModelWrites+st.AuxWrites)
	alpha := top.Alpha()
	return CostEstimate{
		Access: access,
		Reads:  reads,
		Writes: writes,
		Cost:   reads + alpha*writes,
	}
}

// CostRatio returns the paper's Figure 7(b) statistic for a dataset:
// (1+alpha)·Σnᵢ / (Σnᵢ² + alpha·d), the ratio of row-wise to
// column-to-row cost under write-cost factor alpha.
func CostRatio(ds *data.Dataset, alpha float64) float64 {
	var sumN, sumN2 float64
	for i := 0; i < ds.Rows(); i++ {
		n := float64(ds.A.RowNNZ(i))
		sumN += n
		sumN2 += n * n
	}
	denom := sumN2 + alpha*float64(ds.Cols())
	if denom == 0 {
		return 0
	}
	return (1 + alpha) * sumN / denom
}

// PaperCost evaluates the paper's literal Figure 6 cost model for one
// access method on a dataset:
//
//	row-wise:    Σnᵢ reads + α·(Σnᵢ sparse-update writes, or d·N dense)
//	column-wise: Σnᵢ² reads (column-to-row touches every row in S(j)
//	             in full) + α·d writes
//
// where nᵢ is the nonzero count of row i and α = Topology.Alpha().
// The formula deliberately charges all column methods the
// column-to-row read volume, as the paper does: the optimizer is
// conservative about coordinate methods, which is exactly what makes
// it pick row-wise for SVM/LR/LS and column-wise for LP/QP
// (Figure 14).
func PaperCost(spec model.Spec, ds *data.Dataset, access model.Access, top numa.Topology) float64 {
	alpha := top.Alpha()
	var sumN, sumN2 float64
	for i := 0; i < ds.Rows(); i++ {
		n := float64(ds.A.RowNNZ(i))
		sumN += n
		sumN2 += n * n
	}
	d := float64(ds.Cols())
	if access == model.RowWise {
		writes := sumN
		if spec.DenseUpdate() {
			writes = d * float64(ds.Rows())
		}
		return sumN + alpha*writes
	}
	return sumN2 + alpha*d
}

// Choose runs the cost-based optimizer (Section 3.2) plus the paper's
// replication rules of thumb (Sections 3.3–3.4) and returns a complete
// plan for the spec/dataset/machine triple:
//
//   - access method: the cheaper of the spec's supported methods under
//     the literal Figure 6 cost model (PaperCost);
//   - model replication: PerNode for row-wise (SGD-like) plans,
//     PerMachine for column-wise (SCD-like) plans;
//   - data replication: FullReplication ("if there is available
//     memory, FullReplication seems preferable", Section 3.4).
func Choose(spec model.Spec, ds *data.Dataset, top numa.Topology) (Plan, error) {
	return ChooseExecutor(spec, ds, top, ExecSimulated)
}

// ChooseExecutor runs the optimizer for a specific execution backend.
// The executor narrows the plan space the cost model prices: the
// parallel backend implements only row-wise methods (column-wise
// auxiliary state is inconsistent under unsynchronized flushes), so
// its candidate set is restricted to row-wise — or the choice fails
// loudly for specs with no row-wise method (LP/QP's coordinate
// descent) rather than silently falling back to the simulator.
func ChooseExecutor(spec model.Spec, ds *data.Dataset, top numa.Topology, exec ExecutorKind) (Plan, error) {
	supported := spec.Supports()
	if len(supported) == 0 {
		return Plan{}, fmt.Errorf("core: %s supports no access methods", spec.Name())
	}
	if exec == ExecParallel {
		rowOK := false
		for _, a := range supported {
			if a == model.RowWise {
				rowOK = true
			}
		}
		if !rowOK {
			return Plan{}, fmt.Errorf("core: %s has no row-wise method; the parallel executor cannot run it", spec.Name())
		}
		supported = []model.Access{model.RowWise}
	}
	best := supported[0]
	bestCost := PaperCost(spec, ds, best, top)
	for _, a := range supported[1:] {
		if c := PaperCost(spec, ds, a, top); c < bestCost {
			best, bestCost = a, c
		}
	}
	plan := Plan{
		Access:   best,
		Machine:  top,
		DataRep:  FullReplication,
		Executor: exec,
	}
	if best == model.RowWise {
		plan.ModelRep = PerNode
	} else {
		plan.ModelRep = PerMachine
	}
	if spec.Aggregate() {
		// One-pass aggregates gain nothing statistically from seeing
		// the data more than once; sharding minimises the work.
		plan.DataRep = Sharding
		plan.ModelRep = PerNode
	}
	plan = plan.Normalize(spec)
	if exec == ExecParallel {
		// The pooled executor's epoch overhead is wakeups, not spawns,
		// and its fused sparse-aware flush costs O(coordinates dirtied)
		// rather than O(dim): with both cheap, the remaining lever is
		// flush frequency. A 64-step batch keeps the master-synchronization
		// traffic an order of magnitude below the step work on the bundled
		// sparse datasets while staying well inside the staleness the
		// Hogwild! analysis tolerates.
		plan.ChunkSize = 64
	}
	return plan, plan.Validate(spec)
}

// ClusterEpochSeconds extends the cost model one level up the
// replication hierarchy: it prices a PerCluster epoch-synchronous
// round across peers machines. Each peer trains its 1/peers shard
// (compute parallelises perfectly under Sharding, the only data
// replication PerCluster supports), then ships its dim-float replica
// to the coordinator and receives the combined model back — 2·dim·8
// bytes per peer per round over a link moving bytesPerSec. The
// returned figure is what cmd/dwcoord surfaces when explaining
// whether a dataset is big enough for the shard+combine round trip to
// beat staying on one machine.
func ClusterEpochSeconds(localSeconds float64, peers, dim int, bytesPerSec float64) float64 {
	if peers <= 1 {
		return localSeconds
	}
	compute := localSeconds / float64(peers)
	transfer := 0.0
	if bytesPerSec > 0 {
		transfer = 2 * float64(peers) * float64(dim) * 8 / bytesPerSec
	}
	return compute + transfer
}

// Explain returns the optimizer's view of every supported access
// method, for diagnostics (cmd/dwplan).
func Explain(spec model.Spec, ds *data.Dataset, top numa.Topology) []CostEstimate {
	var out []CostEstimate
	for _, a := range spec.Supports() {
		out = append(out, EstimateCost(spec, ds, a, top))
	}
	return out
}
