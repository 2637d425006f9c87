package main

import (
	"time"

	"dimmwitted/internal/core"
	"dimmwitted/internal/data"
	"dimmwitted/internal/factor"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
	"dimmwitted/internal/trace"
	"dimmwitted/internal/vec"
)

// kernelPasses is how many timed passes each kernel measurement makes;
// the reported value is the median pass.
const kernelPasses = 5

// datasetBatches cuts the first count*size rows of ds into prediction
// batches of size examples.
func datasetBatches(ds *data.Dataset, size, count int) [][]model.Example {
	var out [][]model.Example
	for k := 0; k < count && (k+1)*size <= ds.Rows(); k++ {
		rows := make([]int, size)
		for i := range rows {
			rows[i] = k*size + i
		}
		out = append(out, model.DatasetExamples(ds, rows))
	}
	return out
}

// measureKernels times the per-row kernels from outside: Spec.RowStep
// over ds's rows, vec.Atomic.FlushDeltaSparse over 64-row chunks of
// their coordinates (the parallel executor's default flush window), and
// model.PredictBatch over batches against x.
func measureKernels(spec model.Spec, ds *data.Dataset, x []float64, batches [][]model.Example, sl *spanLog, parent int64) map[string]float64 {
	rows := ds.Rows()
	if rows > 50000 {
		rows = 50000
	}
	nnz := float64(ds.A.RowPtr[rows] - ds.A.RowPtr[0])
	out := map[string]float64{}

	var step []float64
	for p := 0; p < kernelPasses; p++ {
		r := spec.NewReplica(ds)
		sp := sl.begin(parent, "model", "RowStep")
		t := time.Now()
		for i := 0; i < rows; i++ {
			spec.RowStep(ds, i, r, 1e-3)
		}
		step = append(step, float64(time.Since(t))/nnz)
		sp.end()
	}
	out["model.row_step_ns_per_nnz"] = median(step)

	const chunk = 64
	var flush []float64
	for p := 0; p < kernelPasses; p++ {
		a := vec.NewAtomic(ds.Cols())
		cur := make([]float64, ds.Cols())
		base := make([]float64, ds.Cols())
		var spent time.Duration
		coords := 0
		sp := sl.begin(parent, "vec", "FlushDeltaSparse")
		for lo := 0; lo < rows; lo += chunk {
			hi := min(lo+chunk, rows)
			idx := ds.A.ColIdx[ds.A.RowPtr[lo]:ds.A.RowPtr[hi]]
			for _, j := range idx {
				cur[j] += 1e-6
			}
			t := time.Now()
			a.FlushDeltaSparse(cur, base, idx)
			spent += time.Since(t)
			coords += len(idx)
		}
		sp.end()
		flush = append(flush, float64(spent)/float64(coords))
	}
	out["vec.flush_sparse_ns_per_coord"] = median(flush)

	out["model.predict_ns_per_nnz"] = measurePredict(spec, x, batches, sl, parent)
	return out
}

// measurePredict times model.PredictBatch over every batch, in ns per
// nonzero scored.
func measurePredict(spec model.Spec, x []float64, batches [][]model.Example, sl *spanLog, parent int64) float64 {
	var nnz int
	for _, b := range batches {
		for _, ex := range b {
			nnz += len(ex.Idx)
		}
	}
	var per []float64
	for p := 0; p < kernelPasses; p++ {
		sp := sl.begin(parent, "model", "PredictBatch")
		t := time.Now()
		for _, b := range batches {
			if _, err := model.PredictBatch(spec, x, b); err != nil {
				panic(err) // the batches are built within the model's dimension
			}
		}
		per = append(per, float64(time.Since(t))/float64(nnz))
		sp.end()
	}
	return median(per)
}

// measureSnapshot times core.EncodeSnapshot of the engine's current
// snapshot (median of several encodes) and returns the encoded size.
func measureSnapshot(eng *core.Engine, sl *spanLog, parent int64) (float64, int) {
	snap := eng.Snapshot()
	var ms []float64
	n := 0
	for p := 0; p < kernelPasses; p++ {
		sp := sl.begin(parent, "core", "EncodeSnapshot")
		t := time.Now()
		n = len(core.EncodeSnapshot(snap))
		ms = append(ms, msSince(t))
		sp.end()
	}
	return median(ms), n
}

// The probes measure, at a fixed small size, the layers a traced
// workload does not exercise itself, so every traced run reports every
// per-layer metric. README.md lists which workload measures what.

// probeEngine runs a small train-sparse engine traced: the core phase
// split, epochs to the target loss, build and generate times, the
// snapshot codec and the kernels.
func probeEngine(seed int64, sl *spanLog) (map[string]float64, error) {
	sz := trainSize{rows: 40000, cols: 4000, epochs: 12, target: 0.33}
	spec := model.NewSVM()
	root := sl.begin(0, "probe", "engine")
	defer root.end()
	t := time.Now()
	ds := trainCorpus(sz, seed)
	gen := msSince(t)
	t = time.Now()
	plan, err := core.ChooseExecutor(spec, ds, numa.Local2, core.ExecParallel)
	if err != nil {
		return nil, err
	}
	plan.Seed = seed
	eng, err := core.New(spec, ds, plan)
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	build := msSince(t)
	rec := trace.New(trace.Config{})
	eng.SetRecorder(rec)
	hit := sz.epochs + 1
	for e := 0; e < sz.epochs; e++ {
		sp := sl.begin(root.id, "core", "RunEpoch")
		er := eng.RunEpoch()
		sp.end()
		if er.Loss <= sz.target && hit > sz.epochs {
			hit = er.Epoch
		}
	}
	l := layerSamples{}
	coreFromSummary(l, rec.Summary(), true)
	out := map[string]float64{}
	for name, vs := range l {
		out[name] = median(vs)
	}
	out["core.epochs_to_target"] = float64(hit)
	out["core.build_ms"] = build
	out["data.generate_ms"] = gen
	ms, n := measureSnapshot(eng, sl, root.id)
	out["core.snapshot_encode_ms"] = ms
	out["core.snapshot_bytes"] = float64(n)
	for name, v := range measureKernels(spec, ds, eng.Model(), datasetBatches(ds, 32, 256), sl, root.id) {
		out[name] = v
	}
	return out, nil
}

// probeGibbs runs a few sweeps over a small graph.
func probeGibbs(seed int64, sl *spanLog) (map[string]float64, error) {
	sz := gibbsSize{vars: 40000, sweeps: 6}
	root := sl.begin(0, "probe", "gibbs")
	defer root.end()
	eng, err := core.NewWorkload(factor.NewWorkload(gibbsGraph(sz, seed)), core.Plan{
		Machine: numa.Local2, ModelRep: core.PerNode, DataRep: core.FullReplication,
		Executor: core.ExecParallel, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	defer eng.Close()
	var steps int
	var wall time.Duration
	for e := 0; e < sz.sweeps; e++ {
		sp := sl.begin(root.id, "core", "RunEpoch")
		er := eng.RunEpoch()
		sp.end()
		steps += er.Steps
		wall += er.WallTime
	}
	return map[string]float64{
		"factor.samples_per_s": float64(steps) / wall.Seconds(),
		"factor.sweep_ms":      float64(wall) / 1e6 / float64(sz.sweeps),
	}, nil
}

// probes maps each probe to the metrics it measures.
var probes = []struct {
	name    string
	metrics []string
	run     func(b *bench) (map[string]float64, error)
}{
	{"engine", []string{
		"model.row_step_ns_per_nnz", "vec.flush_sparse_ns_per_coord", "model.predict_ns_per_nnz",
		"core.epoch_ms", "core.exec_s", "core.step_s", "core.flush_s", "core.steal_s", "core.barrier_s",
		"core.assign_s", "core.loss_s", "core.epochs_to_target", "core.build_ms", "data.generate_ms",
		"core.snapshot_encode_ms", "core.snapshot_bytes",
	}, func(b *bench) (map[string]float64, error) { return probeEngine(b.cfg.seed, b.spans) }},
	{"gibbs", []string{"factor.samples_per_s", "factor.sweep_ms"},
		func(b *bench) (map[string]float64, error) { return probeGibbs(b.cfg.seed, b.spans) }},
	{"serve", []string{
		"serve.predict_client_ms", "serve.predict_server_ms", "serve.registry_predict_us",
		"serve.append_ms", "data.append_rows_per_s", "serve.adopt_lag_ms", "serve.publish_ms",
		"serve.promote_ratio",
	}, probeServe},
}

// fillFromProbes runs every probe that measures a metric the workload
// left unmeasured, and records the probe as that metric's source.
func (b *bench) fillFromProbes() error {
	for _, p := range probes {
		var missing []string
		for _, name := range p.metrics {
			if _, ok := b.layer[name]; !ok {
				missing = append(missing, name)
			}
		}
		if len(missing) == 0 {
			continue
		}
		vals, err := p.run(b)
		if err != nil {
			return err
		}
		for _, name := range missing {
			v, ok := vals[name]
			if !ok {
				continue
			}
			b.layer[name] = metric{Value: v, Unit: unitOf(perLayer, name)}
			b.source[name] = "probe:" + p.name
		}
	}
	// The process-wide runtime figures cover whatever the run did.
	if _, ok := b.layer["runtime.gc_pause_ms"]; !ok {
		b.layer["runtime.gc_pause_ms"] = metric{Value: float64(gcPauseNs()) / 1e6, Unit: "ms"}
		b.source["runtime.gc_pause_ms"] = "process"
	}
	return nil
}
