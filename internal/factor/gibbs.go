package factor

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// Workload runs Gibbs sampling over a factor graph through the
// core engine: chains map onto the plan's model replicas (PerMachine —
// the single Hogwild!-Gibbs chain; PerNode — DimmWitted's independent
// chain per socket; PerCore — a chain per worker), variables onto work
// units of the shared partitioner, and the pooled marginal estimate
// onto the engine's combined state vector. Sampling one variable is a
// column-to-row access: fetch every factor containing it plus the
// assignments those factors touch, then write one assignment back.
//
// Under the simulated executor each chain samples its sweep
// permutation sequentially (drawn from the chain's own generator, so a
// fixed seed reproduces the classic sampler's marginals exactly); the
// parallel executor runs the chain's workers as real goroutines
// sampling concurrently on the shared chain with atomic assignment
// loads/stores — the Hogwild!-Gibbs memory model, race-detector clean
// because each worker owns a disjoint variable partition.
//
// A Workload instance binds to one engine; build a new one per run.
type Workload struct {
	g      *Graph
	plan   core.Plan
	chains []*chain
}

// chain is one Gibbs chain: an assignment (int32 for atomic access
// under the parallel executor), its marginal tallies, and the chain's
// private generator for sweep permutations and flips. src is the
// counting source backing rng, so a snapshot can capture the chain's
// exact stream position for bit-identical resume. order is EpochOrder's
// reusable sweep-permutation buffer.
type chain struct {
	assign  []int32
	ones    []int64
	tallies int64
	rng     *rand.Rand
	src     *core.SeededSource
	order   []int
}

// NewWorkload wraps a factor graph as an engine workload.
func NewWorkload(g *Graph) *Workload { return &Workload{g: g} }

// Kind implements core.Workload.
func (w *Workload) Kind() core.WorkloadKind { return core.WorkloadGibbs }

// Name implements core.Workload.
func (w *Workload) Name() string { return "gibbs" }

// DatasetName implements core.Workload.
func (w *Workload) DatasetName() string {
	if w.g.Name != "" {
		return w.g.Name
	}
	return "graph"
}

// Supports implements core.Workload: sampling is the de facto
// column-to-row workload (Section 5.1).
func (w *Workload) Supports() []model.Access { return []model.Access{model.ColToRow} }

// NormalizePlan implements core.Workload. Chunk size 1 keeps the
// simulated interleaver sampling each chain's permutation in exact
// order; step size is meaningless for sampling and pinned to 1.
func (w *Workload) NormalizePlan(p core.Plan) core.Plan {
	p.Access = model.ColToRow
	if p.ChunkSize == 0 {
		p.ChunkSize = 1
	}
	if p.Step == 0 {
		p.Step = 1
	}
	if p.StepDecay == 0 {
		p.StepDecay = 1
	}
	return p
}

// ValidatePlan implements core.Workload.
func (w *Workload) ValidatePlan(p core.Plan) error {
	if p.DataRep == core.Importance {
		return fmt.Errorf("factor: Importance data replication is undefined for Gibbs sampling")
	}
	if p.DataRep == core.Sharding && p.ModelRep != core.PerMachine {
		// A chain that never resamples part of the domain is not a
		// Gibbs chain; multi-chain plans need the full domain per chain.
		return fmt.Errorf("factor: Sharding requires PerMachine (a single chain); multi-chain plans need FullReplication")
	}
	return nil
}

// Optimize implements core.Workload. The classic layout (one machine-
// shared chain, sharded variables) pays cross-socket assignment
// traffic and write collisions on every sample; independent chains per
// node sample locally and pool classically valid estimates (Robert &
// Casella), the ~4x of Figure 17(b). The optimizer therefore picks
// chain-per-node whenever the machine has more than one socket, on
// both backends.
func (w *Workload) Optimize(top numa.Topology, exec core.ExecutorKind) (core.Plan, error) {
	p := core.Plan{Access: model.ColToRow, Machine: top, Executor: exec}
	if top.Nodes > 1 {
		p.ModelRep = core.PerNode
		p.DataRep = core.FullReplication
	} else {
		p.ModelRep = core.PerMachine
		p.DataRep = core.Sharding
	}
	return p, nil
}

// Bind implements core.Workload.
func (w *Workload) Bind(p core.Plan) { w.plan = p }

// Units implements core.Workload: one unit per variable per sweep.
func (w *Workload) Units() int { return w.g.NumVars }

// Dim implements core.Workload: the combined state is the pooled
// marginal estimate, one probability per variable.
func (w *Workload) Dim() int { return w.g.NumVars }

// DataNNZ implements core.Workload.
func (w *Workload) DataNNZ() int64 { return w.g.NNZ() }

// Layout implements core.Workload: the model region holds the 1-byte
// assignments, the data region the factor structure. Every worker
// writes one variable per step of a NumVars-sized assignment:
// single-word updates rarely collide (Figure 16b's mechanism), but the
// hot skewed variables still do.
func (w *Workload) Layout() core.Layout {
	p := float64(w.plan.Workers-1) / float64(w.g.NumVars) * 4 // skew multiplier
	if p > 1 {
		p = 1
	}
	return core.Layout{
		ModelBytes:         int64(w.g.NumVars),
		DataBytes:          w.g.NNZ() * 8,
		ModelCollisionProb: p,
	}
}

// NewReplica implements core.Workload: one chain per replica, each
// with a random initial assignment from its own generator (chain n
// seeds from seed+1+n, the classic sampler's discipline).
func (w *Workload) NewReplica(repIdx int, seed int64) *core.WorkState {
	src := core.NewSeededSource(seed + 1 + int64(repIdx))
	c := &chain{
		assign: make([]int32, w.g.NumVars),
		ones:   make([]int64, w.g.NumVars),
		rng:    rand.New(src),
		src:    src,
	}
	rng := c.rng
	for v := range c.assign {
		c.assign[v] = int32(rng.Intn(2))
	}
	w.chains = append(w.chains, c)
	return &core.WorkState{X: make([]float64, w.g.NumVars), Priv: c}
}

// EpochOrder implements core.EpochOrderer: each chain draws its sweep
// permutation from its own generator, exactly like the classic
// sampler. The permutation fills the chain's reusable buffer, valid
// until the next call.
func (w *Workload) EpochOrder(repIdx int) []int {
	c := w.chains[repIdx]
	if c.order == nil {
		c.order = make([]int, w.g.NumVars)
	}
	core.FillPerm(c.rng, c.order)
	return c.order
}

// Step implements core.Workload: resample variable unit of the
// replica's chain, charging the column-to-row access — the factor
// column, the member assignments, and the single assignment write.
// rng is non-nil only under the parallel executor, whose workers
// cannot share the chain's generator.
func (w *Workload) Step(unit int, ws *core.WorkState, _ float64, rng *rand.Rand, cost *core.StepCost) model.Stats {
	c := ws.Priv.(*chain)
	reads := w.g.reads(unit)
	if cost != nil {
		cost.Core.ReadStream(cost.DataReg, reads)  // factor structure
		cost.Core.ReadCached(cost.ModelReg, reads) // member assignments
		cost.Core.Compute(float64(reads)*2 + 8)    // energy accumulation
	}
	logOdds := w.g.logOdds(unit, c.assign)
	p1 := 1 / (1 + math.Exp(-logOdds))
	src := rng
	if src == nil {
		src = c.rng
	}
	var val int32
	if src.Float64() < p1 {
		val = 1
	}
	atomic.StoreInt32(&c.assign[unit], val)
	if cost != nil {
		cost.Core.Write(cost.ModelReg, 1)
	}
	// Each worker owns a disjoint variable partition, so tallying into
	// the shared slice is race-free even under the parallel executor.
	c.ones[unit] += int64(val)
	return model.Stats{
		DataWords:   int(reads),
		ModelReads:  int(reads),
		ModelWrites: 1,
		Flops:       int(reads)*2 + 8,
	}
}

// Sync implements core.Workload: chains pool their estimates but stay
// independent — averaging assignments across chains would be
// statistical nonsense.
func (w *Workload) Sync() core.SyncMode { return core.SyncPool }

// Concurrency implements core.Workload: parallel workers sample
// directly on the shared chain (Hogwild!-Gibbs), not on delta-flushed
// working copies.
func (w *Workload) Concurrency() core.ConcurrencyMode { return core.ConcurrencyShared }

// Combine implements core.Workload: the pooled estimate is total ones
// over total tallies across chains — computed from the chains' exact
// integer counts (the classic sampler's arithmetic) rather than by
// averaging the per-chain float estimates, which would drift by an ulp.
func (w *Workload) Combine(_ [][]float64, dst []float64) {
	var total float64
	for _, c := range w.chains {
		total += float64(c.tallies)
	}
	if total == 0 {
		for v := range dst {
			dst[v] = 0
		}
		return
	}
	for v := range dst {
		var ones float64
		for _, c := range w.chains {
			ones += float64(c.ones[v])
		}
		dst[v] = ones / total
	}
}

// EndEpoch implements core.Workload: one epoch is one sweep per chain;
// refresh each chain's marginal estimate from its tallies.
func (w *Workload) EndEpoch(reps []*core.WorkState) {
	for _, ws := range reps {
		c := ws.Priv.(*chain)
		c.tallies++
		for v := range ws.X {
			ws.X[v] = float64(c.ones[v]) / float64(c.tallies)
		}
	}
}

// AuxRefresh implements core.Workload; sampling keeps no auxiliary
// state.
func (w *Workload) AuxRefresh(*core.WorkState, bool) bool { return false }

// Loss implements core.Workload with the mean Bernoulli entropy of the
// pooled marginals (nats) — a mixing/uncertainty summary that is
// reported, not a convergence target: sampling runs for a sweep
// budget, so drive Gibbs engines with RunEpochs/MaxEpochs.
func (w *Workload) Loss(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var h float64
	for _, p := range x {
		h += bernoulliEntropy(p)
	}
	return h / float64(len(x))
}

// Metrics implements core.Workload with marginal summaries for job
// status.
func (w *Workload) Metrics(x []float64) map[string]float64 {
	if len(x) == 0 {
		return nil
	}
	var sum, pol float64
	for _, p := range x {
		sum += p
		pol += 2 * math.Abs(p-0.5)
	}
	n := float64(len(x))
	return map[string]float64{
		"mean_marginal": sum / n,
		"polarization":  pol / n,
	}
}

// DiscardBurnIn zeroes every chain's marginal tallies, discarding the
// sweeps drawn so far as burn-in. Typical use: run b burn-in epochs,
// DiscardBurnIn, then run n epochs and read the engine's Model().
func (w *Workload) DiscardBurnIn() {
	for _, c := range w.chains {
		for v := range c.ones {
			c.ones[v] = 0
		}
		c.tallies = 0
	}
}

// bernoulliEntropy returns the entropy of a coin with P(1) = p, in
// nats.
func bernoulliEntropy(p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	return -p*math.Log(p) - (1-p)*math.Log(1-p)
}

// ExactMarginals enumerates all assignments of a small graph (≤ 20
// variables) and returns the exact marginals, for validating the
// sampler.
func ExactMarginals(g *Graph) ([]float64, error) {
	if g.NumVars > 20 {
		return nil, fmt.Errorf("factor: exact inference on %d variables is infeasible", g.NumVars)
	}
	probs := make([]float64, g.NumVars)
	var z float64
	assign := make([]int8, g.NumVars)
	for mask := 0; mask < 1<<g.NumVars; mask++ {
		for v := range assign {
			assign[v] = int8((mask >> v) & 1)
		}
		var energy float64
		for i := range g.Factors {
			if g.Factors[i].fires(assign) {
				energy += g.Factors[i].Weight
			}
		}
		w := math.Exp(energy)
		z += w
		for v := range assign {
			if assign[v] == 1 {
				probs[v] += w
			}
		}
	}
	for v := range probs {
		probs[v] /= z
	}
	return probs, nil
}
