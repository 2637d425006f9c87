package core

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dimmwitted/internal/model"
	"dimmwitted/internal/trace"
	"dimmwitted/internal/vec"
)

// Executor drives one epoch's worker step loops. Everything around the
// loops — work partitioning (assignWork), replica grouping (worker →
// locality group), end-of-epoch Combine, step decay and EpochResult
// reporting — is shared engine code; an executor only decides how the
// assigned items actually execute and therefore how time is accounted
// (simulated cycles vs wall clock).
type Executor interface {
	// Kind identifies the backend.
	Kind() ExecutorKind
	// runEpoch consumes every worker's assigned item list at the
	// engine's current step size, leaving the updated state in the
	// engine's replicas for the shared combine. It returns the number
	// of steps executed and their summed traffic stats. A non-nil
	// error means ctx was cancelled mid-epoch: the replicas are
	// partially updated and the epoch must not be counted.
	runEpoch(ctx context.Context) (steps int, st model.Stats, err error)
}

// simExecutor is the deterministic simulated-NUMA backend: workers
// take turns under a round-robin interleaver at ChunkSize granularity,
// every access is charged to the cost simulator, and PerNode replicas
// are averaged mid-epoch by the asynchronous background worker. Its
// semantics are the figure-reproduction target and are unchanged by
// the workload refactor.
type simExecutor struct{ e *Engine }

// Kind implements Executor.
func (s *simExecutor) Kind() ExecutorKind { return ExecSimulated }

// runEpoch implements Executor. Cancellation is observed between
// interleaver rounds.
func (s *simExecutor) runEpoch(ctx context.Context) (int, model.Stats, error) {
	e := s.e
	// The whole interleaved step loop is one exec span; the mid-epoch
	// averaging worker records its own nested sync spans. Abandoned
	// (cancelled) epochs record nothing, matching the engine's epoch
	// accounting.
	var tExec time.Time
	if e.rec != nil {
		tExec = e.phaseEnd
	}
	var st model.Stats
	steps := 0
	round := 0
	for {
		if err := ctx.Err(); err != nil {
			return steps, st, err
		}
		active := false
		for _, w := range e.workers {
			n := e.plan.ChunkSize
			for n > 0 && w.pos < len(w.items) {
				st.Add(e.executeStep(w, w.items[w.pos]))
				w.pos++
				steps++
				n--
			}
			if w.pos < len(w.items) {
				active = true
			}
		}
		if !active {
			break
		}
		round++
		if e.midEpochSyncDue(round) {
			e.averageReplicas(true)
		}
	}
	if e.rec != nil {
		e.phaseEnd = time.Now()
		e.rec.Record(trace.PhaseExec, e.epoch+1, -1, tExec, e.phaseEnd, int64(steps))
	}
	return steps, st, nil
}

// parallelExecutor is the real-concurrency backend: a persistent pool
// of goroutines, spawned once at first use and parked on their feed
// channels between epochs, so an epoch costs one channel send per pool
// lane instead of a goroutine spawn. The pool is sized to the machine
// — min(logical workers, GOMAXPROCS) — and each lane services a
// contiguous band of the plan's logical workers, so a 12-worker plan
// on a 4-way host runs 4 goroutines multiplexing 3 worker queues each
// rather than oversubscribing the scheduler. Work is distributed by
// chunked stealing: each worker drains its own assigned queue in
// StealChunk runs claimed off an atomic cursor, then steals remaining
// chunks from co-workers on the same replica, so a straggler (or an
// idle lane-mate) no longer serializes the epoch barrier. Stealing
// never crosses replicas (a thief must flush to the victim's master /
// sample the victim's chain) and every unit runs exactly once — the
// cursor hands out disjoint ranges — which Gibbs' plain per-unit
// tallies and the exact aggregate combine both rely on.
//
// For ConcurrencyDelta workloads (GLM, NN) the pool runs the Hogwild!
// memory model: each locality group's replica is mirrored by a
// vec.Atomic master; workers train on private working copies, stepping
// each ChunkSize segment of a claimed chunk with one StepUnits call,
// and push the segment's accumulated deltas with a fused single-pass
// flush — sparse (only the coordinates StepUnits marked as written)
// when the workload declares per-unit coordinate sets, dense
// otherwise. When the workload is a UnitToucher, each claimed chunk's
// data is touched in one pass before the chunk steps, hiding row-fetch
// latency without changing the steps. For ConcurrencyShared workloads
// (Gibbs) workers step directly on the shared replica, whose Step is
// itself race-safe.
// Locality groups meet through the engine's shared end-of-epoch
// combine, exactly like the simulator; the simulated-cost machinery
// does not apply, so epochs are measured in wall-clock time and the
// PMU-style counters stay zero.
type parallelExecutor struct {
	e       *Engine
	delta   bool          // ConcurrencyDelta vs ConcurrencyShared
	masters []*vec.Atomic // one shared master per model replica (delta mode)
	// Per-worker private working copies and flush baselines, allocated
	// once and re-seeded from the masters every epoch: wall time is
	// this backend's measurement, so the epoch loop must not pay
	// per-epoch allocation and GC churn for worker state.
	locals []*WorkState
	bases  [][]float64
	// units steps each flush segment. dirty[w] collects worker w's
	// written coordinates between flushes; it is nil, and the flush
	// dense, unless the workload's units have static coordinate sets.
	units UnitStepper
	dirty []*vec.Dirty
	// touch, when the workload implements it, reads each claimed
	// chunk's data in one tight pass before the chunk steps, so the
	// chunk's row-fetch misses overlap instead of serializing.
	touch UnitToucher
	// Per-worker random sources for shared-mode steps (many goroutines
	// sampling on one chain cannot share the chain's generator). srcs
	// are the counting sources backing rngs, exposed to snapshots so a
	// restored engine's workers continue their exact streams.
	rngs []*rand.Rand
	srcs []*SeededSource

	// victims[w] lists the co-replica workers w may steal from, rotated
	// to start just past w so simultaneous thieves fan out instead of
	// all hammering the same victim's cursor.
	victims [][]int
	// lanes[g] is the band of logical workers pool goroutine g services
	// each epoch, in order; feeds[g] is its parked task channel.
	lanes   [][]*worker
	feeds   []chan *laneTask
	heads   []queueHead
	slots   []workerSlot
	started bool
	closed  bool
	wg      sync.WaitGroup
	// terms holds one loss term per dataset row for laneLoss.
	terms []float64
}

// laneTask is one wake-up of the parked pool: every lane calls run with
// its index, then reports to the barrier.
type laneTask struct {
	run     func(lane int)
	barrier sync.WaitGroup
}

// epochTask is one epoch's marching orders for its workers: the
// epoch's step size and cancellation scope.
type epochTask struct {
	ctx   context.Context
	epoch int
	step  float64
}

// queueHead is one worker queue's claim cursor: how many of the
// worker's assigned items have been claimed, bumped atomically in
// StealChunk runs by the owner and its thieves. Padded to a cache line
// so concurrent claims against neighbouring queues never false-share.
type queueHead struct {
	n atomic.Int64
	_ [56]byte
}

// workerSlot is one worker's per-epoch result, written once at worker
// exit and padded so adjacent workers' writes never share a line.
type workerSlot struct {
	steps int
	stats model.Stats
	err   error
	// touched keeps the touch pass's loads observable.
	touched float64
	_       [64]byte
}

// newParallelExecutor mirrors the engine's replica layout with atomic
// masters (delta mode) or allocates per-worker generators (shared
// mode). Worker goroutines spawn lazily at the first epoch.
func newParallelExecutor(e *Engine) *parallelExecutor {
	p := &parallelExecutor{e: e, delta: e.wl.Concurrency() == ConcurrencyDelta}
	n := len(e.workers)
	pool := runtime.GOMAXPROCS(0)
	if pool > n {
		pool = n
	}
	if pool < 1 {
		pool = 1
	}
	// In delta mode lane bands are cut along replicas. Workers are
	// placed node-minor (engine.go), so contiguous id bands would have
	// every lane train every PerNode replica at once, summing the
	// lanes' concurrent delta flushes into it, and the parallel loss
	// drifts from the simulator's. Shared mode writes in place with no
	// flush, so it keeps id bands, whose cross-lane steals balance the
	// epoch barrier.
	bands := e.workers
	if p.delta {
		bands = append([]*worker(nil), e.workers...)
		sort.SliceStable(bands, func(a, b int) bool { return bands[a].repIdx < bands[b].repIdx })
	}
	p.lanes = make([][]*worker, pool)
	p.feeds = make([]chan *laneTask, pool)
	for g := range p.lanes {
		lo, hi := g*n/pool, (g+1)*n/pool
		p.lanes[g] = bands[lo:hi]
		p.feeds[g] = make(chan *laneTask, 1)
	}
	p.heads = make([]queueHead, n)
	p.slots = make([]workerSlot, n)
	groups := map[int][]int{}
	for _, w := range e.workers {
		groups[w.repIdx] = append(groups[w.repIdx], w.id)
	}
	p.victims = make([][]int, n)
	for _, w := range e.workers {
		g := groups[w.repIdx]
		for i, id := range g {
			if id == w.id {
				p.victims[w.id] = append(append([]int(nil), g[i+1:]...), g[:i]...)
				break
			}
		}
	}

	if !p.delta {
		for _, w := range e.workers {
			src := NewSeededSource(e.plan.Seed + 1_000_000_007 + int64(w.id))
			p.srcs = append(p.srcs, src)
			p.rngs = append(p.rngs, rand.New(src))
		}
		return p
	}
	dim := len(e.global)
	for range e.replicas {
		p.masters = append(p.masters, vec.NewAtomic(dim))
	}
	for i := range e.workers {
		// Negative replica indices mark per-worker working copies.
		p.locals = append(p.locals, e.wl.NewReplica(-1-i, e.plan.Seed))
		p.bases = append(p.bases, make([]float64, dim))
	}
	p.units = e.wl.(UnitStepper)
	p.touch, _ = e.wl.(UnitToucher)
	if uc, ok := e.wl.(UnitCoordser); ok && uc.SparseUnits() {
		p.dirty = make([]*vec.Dirty, n)
		for i := range p.dirty {
			p.dirty[i] = vec.NewDirty(dim)
		}
	}
	return p
}

// Kind implements Executor.
func (p *parallelExecutor) Kind() ExecutorKind { return ExecParallel }

// start spawns the persistent pool goroutines. Called once, from the
// engine goroutine, on the first epoch.
func (p *parallelExecutor) start() {
	p.started = true
	for g, feed := range p.feeds {
		p.wg.Add(1)
		go p.laneLoop(g, feed)
	}
}

// close drains the pool: the feed channels close, every parked worker
// goroutine exits, and close blocks until all have. Idempotent, and a
// no-op if no epoch ever ran. Must be called from the goroutine that
// runs epochs (the pool's single producer).
func (p *parallelExecutor) close() {
	if p.closed {
		return
	}
	p.closed = true
	if !p.started {
		return
	}
	for _, f := range p.feeds {
		close(f)
	}
	p.wg.Wait()
}

// laneLoop is one pool goroutine: park on the feed, run each task for
// this lane, report to the task's barrier, park again. Exits when the
// feed closes.
func (p *parallelExecutor) laneLoop(lane int, feed <-chan *laneTask) {
	defer p.wg.Done()
	for t := range feed {
		t.run(lane)
		t.barrier.Done()
	}
}

// onLanes is the pool's one primitive: wake every lane with run (one
// task send per lane) and wait until each has returned. A non-nil sent
// receives the time the last lane was woken. The pool starts on first
// use; callers check closed. Call from the goroutine that runs epochs
// (the pool's single producer).
func (p *parallelExecutor) onLanes(run func(lane int), sent *time.Time) {
	if !p.started {
		p.start()
	}
	t := &laneTask{run: run}
	t.barrier.Add(len(p.feeds))
	for _, f := range p.feeds {
		f <- t
	}
	if sent != nil {
		*sent = time.Now()
	}
	t.barrier.Wait()
}

// laneLoss is a GLM's objective at x with the row loss terms computed
// on the pool lanes, each filling one contiguous band of rows, and
// folded in row order here: bitwise the spec's serial Loss.
func (p *parallelExecutor) laneLoss(g *glmWorkload, x []float64) float64 {
	rows := g.ds.Rows()
	if cap(p.terms) < rows {
		p.terms = make([]float64, rows)
	}
	terms := p.terms[:rows]
	n := len(p.lanes)
	p.onLanes(func(lane int) {
		lo, hi := lane*rows/n, (lane+1)*rows/n
		g.spec.LossTerms(g.ds, x, lo, terms[lo:hi])
	}, nil)
	return model.LossFromTerms(g.spec, g.ds, x, terms)
}

// claim grabs the next unclaimed run of victim's items, at most chunk
// long; nil means the queue is drained. The atomic cursor hands out
// disjoint ranges, so a unit is executed exactly once no matter how
// many thieves race the owner.
func (p *parallelExecutor) claim(victim, chunk int) []int {
	items := p.e.workers[victim].items
	start := int(p.heads[victim].n.Add(int64(chunk))) - chunk
	if start >= len(items) {
		return nil
	}
	end := start + chunk
	if end > len(items) {
		end = len(items)
	}
	return items[start:end]
}

// runEpoch implements Executor: reset the claim cursors, run every
// lane's band of workers through onLanes (lane-mates that finish early
// are drained by stealing, not by waiting), then collect the padded
// per-worker result slots. Engine-level phase boundaries are
// staged locally and committed only on success: an abandoned
// (cancelled) epoch records nothing, matching the engine's epoch
// accounting.
func (p *parallelExecutor) runEpoch(ctx context.Context) (int, model.Stats, error) {
	e := p.e
	if p.closed {
		return 0, model.Stats{}, fmt.Errorf("core: parallel executor is closed")
	}
	epoch := e.epoch + 1
	traced := e.rec != nil
	var tSeed, tExec, tPool, tWait, tPublish time.Time
	if traced {
		// The first phase starts where the engine's assign phase ended.
		tSeed, tExec = e.phaseEnd, e.phaseEnd
	}
	if p.delta {
		// Seed each master with its replica's current state (the
		// combined state of the previous epoch, or the workload's
		// initial state).
		for i, r := range e.replicas {
			p.masters[i].CopyFrom(r.X)
		}
		if traced {
			tExec = time.Now()
		}
	}
	for i := range p.heads {
		p.heads[i].n.Store(0)
	}
	for i := range p.slots {
		p.slots[i] = workerSlot{}
	}
	task := &epochTask{ctx: ctx, epoch: epoch, step: e.step}
	var sent *time.Time
	if traced {
		sent = &tPool
	}
	p.onLanes(func(lane int) {
		for _, w := range p.lanes[lane] {
			if err := ctx.Err(); err != nil {
				// The epoch is already being abandoned; don't start the
				// remaining lane-mates, but mark them cancelled so the
				// collected slots carry the error no matter which worker
				// observed it first.
				p.slots[w.id].err = err
				continue
			}
			if p.delta {
				p.runDeltaWorker(w, task)
			} else {
				p.runSharedWorker(w, task)
			}
		}
	}, sent)
	if traced {
		tWait = time.Now()
	}

	var st model.Stats
	steps := 0
	var err error
	for i := range p.slots {
		steps += p.slots[i].steps
		st.Add(p.slots[i].stats)
		if p.slots[i].err != nil {
			err = p.slots[i].err
		}
	}
	if p.delta {
		// Pull the masters back into the replicas so the shared combine
		// path sees what the pool produced.
		for i, r := range e.replicas {
			p.masters[i].Snapshot(r.X)
		}
	}
	if traced && err == nil {
		// The engine's next phase starts where this executor's last
		// span ended: publish in delta mode, exec in shared mode.
		e.phaseEnd = tWait
		if p.delta {
			tPublish = time.Now()
			e.phaseEnd = tPublish
			e.rec.Record(trace.PhaseSeed, epoch, -1, tSeed, tExec, 0)
		}
		e.rec.Record(trace.PhasePool, epoch, -1, tExec, tPool, 0)
		e.rec.Record(trace.PhaseExec, epoch, -1, tExec, tWait, int64(steps))
		if p.delta {
			e.rec.Record(trace.PhasePublish, epoch, -1, tWait, tPublish, 0)
		}
	}
	return steps, st, err
}

// runDeltaWorker is one worker's share of a delta-mode epoch:
// snapshot the master into the private working copy, claim chunks (own
// queue first, then co-replica victims), step each ChunkSize segment
// with one StepUnits call and push its batched deltas with the fused
// flush. A segment ends at every ChunkSize boundary whatever the
// StealChunk, so flushes fall where per-unit stepping put them.
// Cancellation is observed after each flush, so an aborted worker
// leaves no unflushed local work behind.
func (p *parallelExecutor) runDeltaWorker(w *worker, t *epochTask) {
	e := p.e
	// wb is the worker's private span buffer (nil when tracing is
	// off): the loop and each flush are timed lock-free and merged by
	// the engine after the barrier.
	var wb *trace.WorkerBuf
	if e.rec != nil {
		wb = e.recBufs[w.id]
	}
	var tLoop, tFlush time.Time
	if wb != nil {
		tLoop = time.Now()
	}
	master := p.masters[w.repIdx]
	local, base := p.locals[w.id], p.bases[w.id]
	master.Snapshot(local.X)
	copy(base, local.X)

	var dirty *vec.Dirty
	if p.dirty != nil {
		dirty = p.dirty[w.id]
	}
	flush := func() {
		if wb != nil {
			tFlush = time.Now()
		}
		if dirty != nil {
			master.FlushDeltaSparse(local.X, base, dirty.List())
			dirty.Reset()
		} else {
			master.FlushDelta(local.X, base)
		}
		if wb != nil {
			wb.Record(trace.PhaseFlush, t.epoch, tFlush, time.Now(), 0)
		}
	}

	// Steps and stats accumulate in goroutine-locals and land in the
	// worker's padded slot once at exit.
	slot := &p.slots[w.id]
	var st model.Stats
	steps := 0
	var touched float64
	defer func() {
		if dirty != nil {
			// A cancelled worker abandons its unflushed segment: empty
			// the set so the next epoch starts clean.
			dirty.Reset()
		}
		slot.steps = steps
		slot.stats = st
		slot.touched = touched
		if wb != nil {
			wb.Record(trace.PhaseWorker, t.epoch, tLoop, time.Now(), int64(steps))
		}
	}()

	flushEvery := e.plan.ChunkSize
	since := 0
	run := func(items []int) bool {
		// The touch is its own tight pass over the whole chunk: folded
		// into the step loop, that loop's unpredictable branches would
		// cap how many loads are in flight.
		if p.touch != nil {
			touched += p.touch.TouchUnits(items)
		}
		for len(items) > 0 {
			seg := items[:min(len(items), flushEvery-since)]
			items = items[len(seg):]
			st.Add(p.units.StepUnits(seg, local, t.step, dirty))
			steps += len(seg)
			since += len(seg)
			if since >= flushEvery {
				flush()
				since = 0
				if err := t.ctx.Err(); err != nil {
					slot.err = err
					return false
				}
			}
		}
		return true
	}

	chunk := e.plan.StealChunk
	for {
		items := p.claim(w.id, chunk)
		if items == nil {
			break
		}
		if !run(items) {
			return
		}
	}
	var tSteal time.Time
	ownSteps := steps
	if wb != nil {
		tSteal = time.Now()
	}
	for _, v := range p.victims[w.id] {
		for {
			items := p.claim(v, chunk)
			if items == nil {
				break
			}
			if !run(items) {
				return
			}
		}
	}
	if wb != nil && steps > ownSteps {
		wb.Record(trace.PhaseSteal, t.epoch, tSteal, time.Now(), int64(steps-ownSteps))
	}
	flush()
}

// rngStates captures the shared-mode worker generators' stream
// positions for a snapshot; nil in delta mode, whose workers keep no
// persistent randomness.
func (p *parallelExecutor) rngStates() []RNGState {
	if p.srcs == nil {
		return nil
	}
	out := make([]RNGState, len(p.srcs))
	for i, s := range p.srcs {
		out[i] = s.State()
	}
	return out
}

// restoreRNGs repositions the shared-mode worker generators from a
// snapshot. A worker-count mismatch means the snapshot's plan differs
// from the engine's and exact resume is impossible.
func (p *parallelExecutor) restoreRNGs(states []RNGState) error {
	if len(states) != len(p.srcs) {
		return fmt.Errorf("core: snapshot has %d worker generators, engine has %d", len(states), len(p.srcs))
	}
	for i, st := range states {
		p.srcs[i].Restore(st)
	}
	return nil
}

// sharedCancelStride is how many shared-mode steps run between
// cancellation checks — frequent enough to abort a parallel Gibbs
// epoch promptly, rare enough to stay out of the sampling hot loop.
const sharedCancelStride = 64

// runSharedWorker is one worker's share of a shared-state epoch: claim
// and step chunks (own queue first, then co-replica victims) directly
// on the locality group's replica with a private generator. The
// workload's Step must be race-safe for concurrent same-replica callers
// (Gibbs uses atomic assignment loads/stores, and the claim cursor
// guarantees each variable is sampled exactly once per sweep).
func (p *parallelExecutor) runSharedWorker(w *worker, t *epochTask) {
	e := p.e
	// wb is the worker's private span buffer (nil when tracing is off);
	// the whole sampling loop is one worker span.
	var wb *trace.WorkerBuf
	if e.rec != nil {
		wb = e.recBufs[w.id]
	}
	var tLoop time.Time
	if wb != nil {
		tLoop = time.Now()
	}
	ws := e.replicas[w.repIdx]
	rng := p.rngs[w.id]
	slot := &p.slots[w.id]
	var st model.Stats
	steps := 0
	defer func() {
		slot.steps = steps
		slot.stats = st
		if wb != nil {
			wb.Record(trace.PhaseWorker, t.epoch, tLoop, time.Now(), int64(steps))
		}
	}()
	run := func(items []int) bool {
		for _, item := range items {
			st.Add(e.wl.Step(item, ws, t.step, rng, nil))
			steps++
			if steps%sharedCancelStride == 0 {
				if err := t.ctx.Err(); err != nil {
					slot.err = err
					return false
				}
			}
		}
		return true
	}
	chunk := e.plan.StealChunk
	for {
		items := p.claim(w.id, chunk)
		if items == nil {
			break
		}
		if !run(items) {
			return
		}
	}
	var tSteal time.Time
	ownSteps := steps
	if wb != nil {
		tSteal = time.Now()
	}
	for _, v := range p.victims[w.id] {
		for {
			items := p.claim(v, chunk)
			if items == nil {
				break
			}
			if !run(items) {
				return
			}
		}
	}
	if wb != nil && steps > ownSteps {
		wb.Record(trace.PhaseSteal, t.epoch, tSteal, time.Now(), int64(steps-ownSteps))
	}
}
