package main

import (
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
)

// trainSize is the train-sparse input and budget.
type trainSize struct {
	rows, cols, epochs int
	// target is the loss core.epochs_to_target counts epochs to; it is
	// reported, never gated on.
	target float64
}

// corpusNNZ is the mean nonzero count of a train-sparse row.
const corpusNNZ = 12

func trainSizes(small bool) trainSize {
	if small {
		return trainSize{rows: 8000, cols: 1000, epochs: 20, target: 0.5}
	}
	return trainSize{rows: 200000, cols: 4000, epochs: 25, target: 0.33}
}

// trainCorpus generates the train-sparse corpus for a seed: a Zipf
// sparse classification set, ~nnz nonzeros per row.
func trainCorpus(sz trainSize, seed int64) *data.Dataset {
	return data.GenerateSparse(data.SparseConfig{
		Name: "bench-sparse", Rows: sz.rows, Cols: sz.cols, NNZPerRow: corpusNNZ, Noise: 0.05, Seed: seed,
	})
}

// layerSamples collects per-round values of per-layer metrics; the
// reported value is each metric's median.
type layerSamples map[string][]float64

func (l layerSamples) add(name string, v float64) { l[name] = append(l[name], v) }

func (l layerSamples) report(b *bench) {
	for name, vs := range l {
		b.setLayer(name, median(vs))
	}
}

// coreFromSummary adds the engine recorder's phase split, per epoch.
func coreFromSummary(l layerSamples, sum trace.Summary, withFlush bool) {
	if sum.Epochs == 0 {
		return
	}
	per := float64(sum.Epochs)
	phase := func(name string) float64 {
		for _, p := range sum.Phases {
			if p.Phase == name {
				return p.Seconds
			}
		}
		return 0
	}
	l.add("core.epoch_ms", sum.EpochSeconds/per*1e3)
	l.add("core.exec_s", phase("exec")/per)
	l.add("core.step_s", sum.StepSeconds/per)
	l.add("core.steal_s", phase("steal")/per)
	l.add("core.barrier_s", sum.BarrierSeconds/per)
	l.add("core.assign_s", phase("assign")/per)
	l.add("core.loss_s", phase("loss")/per)
	if withFlush {
		l.add("core.flush_s", phase("flush")/per)
	}
}

// heapBytes reads the live heap object bytes without stopping the
// world.
func heapBytes() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

func gcPauseNs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.PauseTotalNs
}

// overhead reports how much slower traced rounds finished their fixed
// work than untraced ones, in percent.
func overhead(l layerSamples, traced, plain []float64) {
	if len(traced) > 0 && len(plain) > 0 {
		l.add("trace.overhead_pct", 100*(median(traced)/median(plain)-1))
	}
}

// runTrainSparse is the paper's inner loop: SVM epochs under the
// optimizer's parallel plan over a Zipf sparse corpus.
func runTrainSparse(b *bench) error {
	sz := trainSizes(b.cfg.small)
	spec := model.NewSVM()
	s := e2eSamples{tailQ: 0.9}
	l := layerSamples{}
	var tracedGoals, plainGoals []float64
	var lastDS *data.Dataset
	var lastX []float64
	err := b.rounds(minRounds(b.cfg), func(i int) error {
		traced := b.cfg.trace && i%2 == 0
		var sl *spanLog
		if traced {
			sl = b.spans
		}
		root := sl.begin(0, "bench", "train-sparse.round")
		defer root.end()

		t0 := time.Now()
		sp := sl.begin(root.id, "data", "GenerateSparse")
		ds := trainCorpus(sz, b.cfg.seed)
		sp.end()
		genMs := msSince(t0)
		tb := time.Now()
		sp = sl.begin(root.id, "core", "New")
		plan, err := core.ChooseExecutor(spec, ds, numa.Local2, core.ExecParallel)
		if err != nil {
			return err
		}
		plan.Seed = b.cfg.seed
		eng, err := core.New(spec, ds, plan)
		if err != nil {
			return err
		}
		sp.end()
		defer eng.Close()
		buildMs := msSince(tb)
		setup := time.Since(t0).Seconds()

		var rec *trace.Recorder
		if traced {
			rec = trace.New(trace.Config{})
			eng.SetRecorder(rec)
		}
		pause0 := gcPauseNs()
		heapPeak := 0.0
		first, last := math.NaN(), math.NaN()
		hit := sz.epochs + 1
		var ops []float64
		gs := time.Now()
		for e := 0; e < sz.epochs; e++ {
			sp := sl.begin(root.id, "core", "RunEpoch")
			es := time.Now()
			er := eng.RunEpoch()
			d := msSince(es)
			sp.end()
			b.op()
			ops = append(ops, d)
			if math.IsNaN(er.Loss) || math.IsInf(er.Loss, 0) {
				b.fail("train-sparse round %d epoch %d: loss %v", i, er.Epoch, er.Loss)
			}
			if e == 0 {
				first = er.Loss
			}
			last = er.Loss
			if er.Loss <= sz.target && hit > sz.epochs {
				hit = er.Epoch
			}
			if traced {
				heapPeak = math.Max(heapPeak, heapBytes())
			}
		}
		goal := time.Since(gs).Seconds()
		if !(last < first) {
			b.fail("train-sparse round %d: final loss %v not below first epoch's %v", i, last, first)
		}
		s.goals = append(s.goals, goal)
		s.ops = append(s.ops, ops)
		s.setups = append(s.setups, setup)
		s.losses = append(s.losses, last)
		if traced {
			tracedGoals = append(tracedGoals, goal)
			coreFromSummary(l, rec.Summary(), true)
			l.add("core.epochs_to_target", float64(hit))
			l.add("core.build_ms", buildMs)
			l.add("data.generate_ms", genMs)
			l.add("runtime.gc_pause_ms", float64(gcPauseNs()-pause0)/1e6)
			l.add("runtime.heap_peak_mb", heapPeak/(1<<20))
			ms, n := measureSnapshot(eng, sl, root.id)
			l.add("core.snapshot_encode_ms", ms)
			l.add("core.snapshot_bytes", float64(n))
		} else {
			plainGoals = append(plainGoals, goal)
		}
		lastDS, lastX = ds, append([]float64(nil), eng.Model()...)
		return nil
	})
	if err != nil {
		return err
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	s.rss = []float64{rss}
	b.report(s)
	if b.cfg.trace {
		overhead(l, tracedGoals, plainGoals)
		l.report(b)
		k := measureKernels(spec, lastDS, lastX, datasetBatches(lastDS, 32, 256), b.spans, 0)
		for name, v := range k {
			b.setLayer(name, v)
		}
		printLine("target", map[string]any{"core.epochs_to_target_loss": sz.target, "unreached_counts_as": sz.epochs + 1})
	}
	return nil
}

// gibbsSize is the gibbs input and budget.
type gibbsSize struct{ vars, sweeps int }

func gibbsSizes(small bool) gibbsSize {
	if small {
		return gibbsSize{vars: 8000, sweeps: 3}
	}
	return gibbsSize{vars: 120000, sweeps: 15}
}

// gibbsGraph generates a paleo-shaped factor graph for a seed: 2.25
// factors per variable of arity 2-3, Zipf degree skew.
func gibbsGraph(sz gibbsSize, seed int64) *factor.Graph {
	g := factor.Generate(factor.GenerateConfig{
		Vars: sz.vars, Factors: sz.vars * 9 / 4, MaxArity: 3, WeightStd: 0.8, Seed: seed,
	})
	g.Name = "bench-paleo"
	return g
}

// runGibbs runs Hogwild Gibbs sweeps: the same parallel executor as
// train-sparse, in shared-state mode (atomic assignments, no flush).
func runGibbs(b *bench) error {
	sz := gibbsSizes(b.cfg.small)
	s := e2eSamples{tailQ: 0.9}
	l := layerSamples{}
	var tracedGoals, plainGoals []float64
	err := b.rounds(minRounds(b.cfg), func(i int) error {
		traced := b.cfg.trace && i%2 == 0
		var sl *spanLog
		if traced {
			sl = b.spans
		}
		root := sl.begin(0, "bench", "gibbs.round")
		defer root.end()

		t0 := time.Now()
		sp := sl.begin(root.id, "factor", "Generate")
		g := gibbsGraph(sz, b.cfg.seed)
		sp.end()
		genMs := msSince(t0)
		tb := time.Now()
		sp = sl.begin(root.id, "core", "NewWorkload")
		eng, err := core.NewWorkload(factor.NewWorkload(g), core.Plan{
			Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication,
			Executor: core.ExecParallel, Seed: b.cfg.seed,
		})
		if err != nil {
			return err
		}
		sp.end()
		defer eng.Close()
		buildMs := msSince(tb)
		setup := time.Since(t0).Seconds()

		var rec *trace.Recorder
		if traced {
			rec = trace.New(trace.Config{})
			eng.SetRecorder(rec)
		}
		pause0 := gcPauseNs()
		heapPeak := 0.0
		var loss float64
		var steps int
		var sweepWall time.Duration
		var ops []float64
		gs := time.Now()
		for e := 0; e < sz.sweeps; e++ {
			sp := sl.begin(root.id, "core", "RunEpoch")
			es := time.Now()
			er := eng.RunEpoch()
			d := time.Since(es)
			sp.end()
			b.op()
			ops = append(ops, float64(d)/1e6)
			steps += er.Steps
			sweepWall += d
			loss = er.Loss
			if bad := badMarginal(eng.Model()); bad >= 0 {
				b.fail("gibbs round %d sweep %d: marginal %d = %v outside [0,1]", i, er.Epoch, bad, eng.Model()[bad])
			}
			if traced {
				heapPeak = math.Max(heapPeak, heapBytes())
			}
		}
		goal := time.Since(gs).Seconds()
		s.goals = append(s.goals, goal)
		s.ops = append(s.ops, ops)
		s.setups = append(s.setups, setup)
		s.losses = append(s.losses, loss)
		if traced {
			tracedGoals = append(tracedGoals, goal)
			coreFromSummary(l, rec.Summary(), false)
			l.add("core.build_ms", buildMs)
			l.add("data.generate_ms", genMs)
			l.add("factor.samples_per_s", float64(steps)/sweepWall.Seconds())
			l.add("factor.sweep_ms", float64(sweepWall)/1e6/float64(sz.sweeps))
			l.add("runtime.gc_pause_ms", float64(gcPauseNs()-pause0)/1e6)
			l.add("runtime.heap_peak_mb", heapPeak/(1<<20))
			ms, n := measureSnapshot(eng, sl, root.id)
			l.add("core.snapshot_encode_ms", ms)
			l.add("core.snapshot_bytes", float64(n))
		} else {
			plainGoals = append(plainGoals, goal)
		}
		return nil
	})
	if err != nil {
		return err
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	s.rss = []float64{rss}
	b.report(s)
	if b.cfg.trace {
		overhead(l, tracedGoals, plainGoals)
		l.report(b)
	}
	return nil
}

// badMarginal returns the index of the first marginal that is not a
// finite probability, or -1.
func badMarginal(x []float64) int {
	for i, p := range x {
		if math.IsNaN(p) || p < 0 || p > 1 {
			return i
		}
	}
	return -1
}

// minRounds is the fewest rounds a run makes, however long they take:
// a traced run needs traced and untraced rounds for the overhead, and
// four train-sparse rounds (100 epochs) put ten epochs beyond its p90.
func minRounds(cfg config) int {
	if cfg.small {
		return 2
	}
	return 4
}
