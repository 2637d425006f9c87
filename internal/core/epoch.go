package core

import (
	"context"
	"slices"
	"time"

	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
)

// EpochResult reports one completed epoch.
type EpochResult struct {
	// Epoch is the 1-based epoch number.
	Epoch int
	// Loss is the combined-state objective after the epoch.
	Loss float64
	// SimTime is the simulated duration of this epoch alone; zero
	// under the parallel executor, which the simulator does not model.
	SimTime time.Duration
	// CumTime is the simulated duration of all epochs so far.
	CumTime time.Duration
	// WallTime is the measured wall-clock duration of this epoch —
	// the primary time axis of the parallel executor, and incidental
	// (engine overhead) for the simulated one.
	WallTime time.Duration
	// Steps is the number of work-unit steps executed this epoch.
	Steps int
	// Counters holds this epoch's PMU-style counters; zero under the
	// parallel executor.
	Counters numa.Counters
}

// RunEpoch executes one full epoch under the plan's executor — every
// worker consumes its assigned work list — and returns the epoch's
// measurements. Under the simulated executor the deterministic
// interleaver reproduces the visibility semantics of the plan's model
// replication: workers sharing a replica observe each other's updates
// at chunk granularity; PerNode replicas are additionally averaged by
// the asynchronous background worker every SyncRounds rounds; PerCore
// replicas meet only at the end of the epoch. Under the parallel
// executor, workers are real goroutines — flushing batched deltas to
// shared atomic masters for vector workloads, or sampling directly on
// race-safe shared state for Gibbs chains.
func (e *Engine) RunEpoch() EpochResult {
	er, err := e.RunEpochCtx(context.Background())
	if err != nil {
		// Unreachable: runEpoch errors only on ctx cancellation and
		// the background context is never cancelled.
		panic(err)
	}
	return er
}

// RunEpochCtx is RunEpoch with cooperative cancellation: the simulated
// executor observes ctx between interleaver rounds, the parallel one
// between worker flushes. On cancellation the partially executed epoch
// is abandoned — no combine runs, the epoch counter does not advance,
// and ctx's error is returned.
func (e *Engine) RunEpochCtx(ctx context.Context) (EpochResult, error) {
	// Tracing: the epoch number being executed is e.epoch+1 (1-based);
	// all phase sites below are nil-checks when tracing is off.
	epoch := e.epoch + 1
	var t0 time.Time
	if e.rec != nil {
		t0 = time.Now()
	}
	e.mach.Reset()
	e.assignWork()
	if e.wl.Sync() == SyncAggregate {
		// One-pass aggregates restart from zero partials every epoch.
		for _, r := range e.replicas {
			for j := range r.X {
				r.X[j] = 0
			}
		}
	}
	if e.rec != nil {
		e.phaseEnd = time.Now()
		e.rec.Record(trace.PhaseAssign, epoch, -1, t0, e.phaseEnd, 0)
	}

	start := time.Now()
	steps, st, err := e.exec.runEpoch(ctx)
	if err != nil {
		// The abandoned partial epoch counts nowhere: neither in the
		// epoch/time counters nor in the traffic stats — nor in the
		// trace journal, whose partial worker spans are discarded.
		e.rec.Discard(e.recBufs)
		return EpochResult{}, err
	}
	e.cumStats.Add(st)

	// The executor handed its last span's end over in phaseEnd; the
	// end-epoch phase starts there, so its own span bookkeeping stays
	// attributed.
	var tEnd time.Time
	if e.rec != nil {
		tEnd = e.phaseEnd
	}
	e.wl.EndEpoch(e.replicas)
	if e.rec != nil {
		now := time.Now()
		e.rec.Record(trace.PhaseEndEpoch, epoch, -1, tEnd, now, 0)
		tEnd = now
	}
	e.combine()
	if e.rec != nil {
		now := time.Now()
		e.rec.Record(trace.PhaseCombine, epoch, -1, tEnd, now, 0)
		tEnd = now
	}
	e.epoch++
	e.step *= e.plan.StepDecay
	wall := time.Since(start)
	e.cumWall += wall

	// Simulated-cost accounting only makes sense for the backend that
	// charged the simulated machine; parallel epochs report wall time.
	var simT time.Duration
	var ctr numa.Counters
	if e.exec.Kind() == ExecSimulated {
		cycles := e.mach.MaxCycles()*e.plan.ComputeScale + e.plan.EpochOverheadCycles
		simT = time.Duration(cycles / e.plan.Machine.ClockGHz)
		ctr = e.mach.Counters()
		e.cumCtr.Add(ctr)
	}
	e.cumTime += simT

	// The loss phase starts where combine ended (tEnd), so the epoch
	// counter/step-decay bookkeeping between them stays attributed
	// instead of falling into an untimed gap.
	e.lastLoss, e.lossValid = e.Loss(), true
	if e.rec != nil {
		now := time.Now()
		e.rec.Record(trace.PhaseLoss, epoch, -1, tEnd, now, 0)
		e.rec.Record(trace.PhaseEpoch, epoch, -1, t0, now, int64(steps))
		// The worker-span merge runs after the epoch span closes: the
		// recorder's own journal maintenance is not engine time and must
		// not dilute the coverage ratio it reports.
		e.rec.Merge(e.recBufs)
	}
	return EpochResult{
		Epoch:    e.epoch,
		Loss:     e.lastLoss,
		SimTime:  simT,
		CumTime:  e.cumTime,
		WallTime: wall,
		Steps:    steps,
		Counters: ctr,
	}, nil
}

// midEpochSyncDue reports whether the asynchronous averaging worker
// fires after the given interleaver round.
func (e *Engine) midEpochSyncDue(round int) bool {
	if e.plan.ModelRep != PerNode || len(e.replicas) < 2 {
		return false
	}
	if e.plan.SyncRounds < 0 || e.wl.Sync() != SyncAverage {
		return false
	}
	// Column access keeps per-row auxiliary state that would need an
	// O(nnz) rebuild after every averaging; mid-epoch averaging is
	// only used on row access (the paper pairs PerNode with SGD).
	if e.plan.Access != model.RowWise && e.replicas[0].Aux != nil {
		return false
	}
	every := e.plan.SyncRounds
	if every == 0 {
		every = 1
	}
	return round%every == 0
}

// executeStep runs one work-unit step for worker w under the simulated
// executor: the workload executes the unit and charges its simulated
// cost through the worker's cost handles.
func (e *Engine) executeStep(w *worker, item int) model.Stats {
	return e.wl.Step(item, e.replicas[w.repIdx], e.step, nil, &w.cost)
}

// averageReplicas is the asynchronous model-averaging worker
// (Section 3.3): it reads every replica, averages, and writes the
// average back, batching many small cross-socket writes into one. Its
// cost is charged to the background core, which overlaps with the
// foreground workers in the epoch's critical path. When refreshAux is
// needed (end of epoch, column access), the rebuild cost is charged to
// the first core of each replica's locality group.
func (e *Engine) averageReplicas(midEpoch bool) {
	if len(e.replicas) < 2 {
		return
	}
	var tSync time.Time
	if e.rec != nil {
		tSync = time.Now()
		defer func() { e.rec.Record(trace.PhaseSync, e.epoch+1, -1, tSync, time.Now(), 0) }()
	}
	if len(e.avg) != len(e.replicas[0].X) {
		e.avg = make([]float64, len(e.replicas[0].X))
	}
	e.wl.Combine(e.replicaXs(), e.avg)
	d := int64(len(e.avg))
	for i, r := range e.replicas {
		e.bg.ReadCached(e.modelReg[i], d)
		copy(r.X, e.avg)
		e.bg.Write(e.modelReg[i], d)
	}
	// Shipping the averages across sockets costs QPI bandwidth.
	e.bg.Compute(float64(d) * float64(len(e.replicas)) * e.mach.Cost.SyncPerWord)

	if !midEpoch && e.replicas[0].Aux != nil && e.plan.Access != model.RowWise {
		e.refreshAux()
	}
}

// refreshAux rebuilds every replica's auxiliary state from its model
// and charges the rebuild (a full data scan plus an aux rewrite).
func (e *Engine) refreshAux() {
	for i, r := range e.replicas {
		if !e.wl.AuxRefresh(r, false) {
			continue
		}
		owner := e.ownerCore(i)
		owner.ReadStream(e.workerForReplica(i).dataReg, int64(float64(e.wl.DataNNZ())*csrOverhead))
		owner.Write(e.auxReg[i], int64(len(r.Aux)))
	}
}

// ownerCore returns the core that pays for replica-wide maintenance.
func (e *Engine) ownerCore(repIdx int) *numa.Core {
	return e.workerForReplica(repIdx).core
}

// workerForReplica returns the first worker attached to a replica.
func (e *Engine) workerForReplica(repIdx int) *worker {
	for _, w := range e.workers {
		if w.repIdx == repIdx {
			return w
		}
	}
	return e.workers[0]
}

// replicaXs lists every replica's state vector in the engine's
// reusable buffer, valid until the next call.
func (e *Engine) replicaXs() [][]float64 {
	for i, r := range e.replicas {
		e.xs[i] = r.X
	}
	return e.xs
}

// combine ends an epoch: replicas are merged into the global state
// and — for workloads that synchronize by averaging — written back,
// the Bismarck-style end-of-epoch averaging. Aggregates fold their
// partials once; pooled estimates (Gibbs) are read-only combines that
// leave the replicas (chains) independent.
func (e *Engine) combine() {
	if len(e.replicas) == 1 {
		copy(e.global, e.replicas[0].X)
		return
	}
	e.wl.Combine(e.replicaXs(), e.global)
	d := int64(len(e.global))
	if e.wl.Sync() != SyncAverage {
		// Partial sums are folded into the global result once (writing
		// the total back into the partials would double-count it);
		// pooled estimates never write back by definition.
		for i := range e.replicas {
			e.bg.ReadCached(e.modelReg[i], d)
		}
		return
	}
	for i, r := range e.replicas {
		e.bg.ReadCached(e.modelReg[i], d)
		copy(r.X, e.global)
		e.bg.Write(e.modelReg[i], d)
	}
	// Column access keeps per-row auxiliary state that must be rebuilt
	// from the newly averaged model; row access leaves aux unused.
	if e.replicas[0].Aux != nil && e.plan.Access != model.RowWise {
		e.refreshAux()
	}
}

// assignWork builds each worker's item list for the coming epoch
// according to the data-replication strategy. Workloads implementing
// EpochOrderer supply the traversal orders themselves (Gibbs chains);
// everyone else draws from the engine's generator.
func (e *Engine) assignWork() {
	domain := e.wl.Units()
	for _, w := range e.workers {
		w.items = w.items[:0]
		w.pos = 0
	}
	orderer, hasOrder := e.wl.(EpochOrderer)
	switch e.plan.DataRep {
	case Sharding:
		var perm []int
		if hasOrder {
			perm = orderer.EpochOrder(0)
		} else {
			perm = e.epochOrder(domain)
		}
		n := len(e.workers)
		for i, item := range perm {
			w := e.workers[i%n]
			w.items = append(w.items, item)
		}
	case FullReplication:
		if hasOrder {
			// Partition per locality group so every replica traverses
			// its own full domain order — a PerCore Gibbs chain sweeps
			// every variable, not a per-node share of them.
			for rep, ws := range e.repWorkers {
				for i, item := range orderer.EpochOrder(rep) {
					w := ws[i%len(ws)]
					w.items = append(w.items, item)
				}
			}
			return
		}
		// Each locality-group *node* processes the whole domain in its
		// own order, split among that node's workers.
		for _, ws := range e.nodeWorkers {
			perm := e.epochOrder(domain)
			for i, item := range perm {
				w := ws[i%len(ws)]
				w.items = append(w.items, item)
			}
		}
	case Importance:
		// Each *node* samples its quota (Appendix C.4: a fraction of
		// the dataset per epoch; at fraction 1 the work matches
		// FullReplication), split among the node's workers.
		m := int(e.plan.ImportanceFraction * float64(domain))
		if m < 1 {
			m = 1
		}
		for _, ws := range e.nodeWorkers {
			for k := 0; k < m; k++ {
				ws[k%len(ws)].items = append(ws[k%len(ws)].items, e.sampleLeverage())
			}
		}
	}
}

// epochOrder returns this epoch's traversal order over the item
// domain: a fresh random permutation normally, the identity order under
// Plan.FixedOrder. The fixed order draws nothing from the engine
// generator, so a FixedOrder engine's RNG position stays wherever
// restore (or construction) put it — the invariant that lets the
// cluster coordinator compare sharded runs against a union run bitwise.
//
// The order lives in the engine's reusable buffer, valid until the
// next call; callers copy it into worker queues. The buffer grows by
// append's amortized policy, so an online job whose domain grows a few
// rows per epoch does not reallocate every epoch. The random order makes
// exactly rand.Perm's draws, so trajectories match the allocating form.
func (e *Engine) epochOrder(domain int) []int {
	e.order = slices.Grow(e.order[:0], domain)
	ord := e.order[:domain]
	if e.plan.FixedOrder {
		for i := range ord {
			ord[i] = i
		}
		return ord
	}
	FillPerm(e.rng, ord)
	return ord
}

// sampleLeverage draws one row index with probability proportional to
// its leverage score.
func (e *Engine) sampleLeverage() int {
	total := e.levCum[len(e.levCum)-1]
	u := e.rng.Float64() * total
	lo, hi := 0, len(e.levCum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if e.levCum[mid+1] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RunResult summarises a convergence run.
type RunResult struct {
	// Converged reports whether the loss target was reached.
	Converged bool
	// Epochs is the number of epochs executed.
	Epochs int
	// Time is the cumulative simulated time.
	Time time.Duration
	// FinalLoss is the loss after the last epoch.
	FinalLoss float64
	// History holds every epoch's result in order.
	History []EpochResult
}

// RunToLoss runs epochs until the combined-state loss drops to target
// or maxEpochs is reached. It works identically on both executors.
func (e *Engine) RunToLoss(target float64, maxEpochs int) RunResult {
	res, _ := e.RunToLossCtx(context.Background(), target, maxEpochs)
	return res
}

// RunToLossCtx is RunToLoss with cooperative cancellation; on
// cancellation it returns the results accumulated so far plus ctx's
// error.
func (e *Engine) RunToLossCtx(ctx context.Context, target float64, maxEpochs int) (RunResult, error) {
	var res RunResult
	for i := 0; i < maxEpochs; i++ {
		er, err := e.RunEpochCtx(ctx)
		if err != nil {
			return res, err
		}
		res.History = append(res.History, er)
		res.Epochs = er.Epoch
		res.Time = er.CumTime
		res.FinalLoss = er.Loss
		if er.Loss <= target {
			res.Converged = true
			break
		}
	}
	return res, nil
}

// RunEpochs runs exactly n epochs and returns their results.
func (e *Engine) RunEpochs(n int) []EpochResult {
	out := make([]EpochResult, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, e.RunEpoch())
	}
	return out
}
