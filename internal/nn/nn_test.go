package nn

import (
	"math"
	"reflect"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

func smallSizes() []int { return []int{32, 24, 16, 10} }

func smallData() *Dataset { return SyntheticMNIST(300, 32, 10, 0.08, 1) }

// smallEngine builds a workload engine on the small dataset.
func smallEngine(t *testing.T, plan core.Plan) (*Workload, *core.Engine) {
	t.Helper()
	wl, err := NewWorkload(smallData(), WorkloadConfig{Sizes: smallSizes(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewWorkload(wl, plan)
	if err != nil {
		t.Fatal(err)
	}
	return wl, eng
}

func TestNetworkShapes(t *testing.T) {
	n := NewNetwork(LeCunSizes(), 1)
	if len(n.Weights) != 6 {
		t.Fatalf("7-layer net has %d weight matrices, want 6", len(n.Weights))
	}
	wantParams := 0
	s := LeCunSizes()
	for l := 0; l < len(s)-1; l++ {
		wantParams += s[l]*s[l+1] + s[l+1]
	}
	if n.NumParams() != wantParams {
		t.Errorf("NumParams = %d, want %d", n.NumParams(), wantParams)
	}
	wantNeurons := 0
	for _, w := range s[1:] {
		wantNeurons += w
	}
	if n.NumNeurons() != wantNeurons {
		t.Errorf("NumNeurons = %d, want %d", n.NumNeurons(), wantNeurons)
	}
}

// The flat parameter vector and the per-layer views must alias: the
// engine averages and snapshots Params, training writes Weights.
func TestParamsAliasLayerViews(t *testing.T) {
	n := NewNetwork(smallSizes(), 2)
	if len(n.Params()) != n.NumParams() {
		t.Fatalf("flat params %d != NumParams %d", len(n.Params()), n.NumParams())
	}
	n.Weights[0][0] = 42
	if n.Params()[0] != 42 {
		t.Error("weight write invisible through Params")
	}
	n.Params()[len(n.Params())-1] = 7
	last := n.Biases[len(n.Biases)-1]
	if last[len(last)-1] != 7 {
		t.Error("params write invisible through Biases")
	}
}

func TestForwardIsDistribution(t *testing.T) {
	n := NewNetwork(smallSizes(), 2)
	ds := smallData()
	s := newScratch(n.Sizes)
	out := n.forward(ds.Images[0], s)
	var sum float64
	for _, p := range out {
		if p < 0 || p > 1 {
			t.Fatalf("probability %v outside [0,1]", p)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("softmax sums to %v", sum)
	}
}

func TestSGDReducesLoss(t *testing.T) {
	n := NewNetwork(smallSizes(), 3)
	ds := smallData()
	init := n.Loss(ds)
	s := newScratch(n.Sizes)
	for epoch := 0; epoch < 5; epoch++ {
		for i := range ds.Images {
			n.SGDStep(ds.Images[i], ds.Labels[i], 0.05, s)
		}
	}
	final := n.Loss(ds)
	if final >= init/2 {
		t.Errorf("SGD loss %v -> %v, want at least halved", init, final)
	}
}

func TestTrainingReachesHighAccuracy(t *testing.T) {
	_, eng := smallEngine(t, core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 4})
	eng.RunEpochs(8)
	m := eng.Metrics()
	if m["accuracy"] < 0.8 {
		t.Errorf("accuracy = %v, want >= 0.8", m["accuracy"])
	}
}

func TestCloneIndependent(t *testing.T) {
	n := NewNetwork(smallSizes(), 5)
	c := n.Clone()
	c.Weights[0][0] += 100
	if n.Weights[0][0] == c.Weights[0][0] {
		t.Error("Clone aliases weights")
	}
}

func TestDimmWittedStrategyFasterThanClassic(t *testing.T) {
	// Figure 17(b): PerNode+FullReplication yields over an order of
	// magnitude more neuron throughput than PerMachine+Sharding, whose
	// fully dense updates hammer one machine-shared network.
	throughput := func(plan core.Plan) float64 {
		wl, eng := smallEngine(t, plan)
		er := eng.RunEpoch()
		return float64(er.Steps*wl.NumNeurons()) / er.SimTime.Seconds()
	}
	classic := throughput(core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 8})
	dw := throughput(core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 8})
	if ratio := dw / classic; ratio < 5 {
		t.Errorf("DW/classic neuron throughput ratio = %.1f, want >= 5 (paper: >10)", ratio)
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := NewWorkload(&Dataset{}, WorkloadConfig{}); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewWorkload(smallData(), WorkloadConfig{Sizes: []int{999, 10}}); err == nil {
		t.Error("mismatched input dim accepted")
	}
	wl, err := NewWorkload(smallData(), WorkloadConfig{Sizes: smallSizes()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewWorkload(wl, core.Plan{DataRep: core.Importance}); err == nil {
		t.Error("Importance data replication accepted for network training")
	}
}

func TestEpochBookkeeping(t *testing.T) {
	_, eng := smallEngine(t, core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Machine: numa.Local2, Seed: 9})
	r1 := eng.RunEpoch()
	r2 := eng.RunEpoch()
	if r1.Epoch != 1 || r2.Epoch != 2 {
		t.Errorf("epoch numbering: %d, %d", r1.Epoch, r2.Epoch)
	}
	if r1.Steps != len(smallData().Images) {
		t.Errorf("sharded epoch processed %d examples, want %d", r1.Steps, len(smallData().Images))
	}
	if eng.SimTime() != r1.SimTime+r2.SimTime {
		t.Error("cumulative SimTime wrong")
	}
}

func TestFullReplicationProcessesPerNode(t *testing.T) {
	_, eng := smallEngine(t, core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 10})
	r := eng.RunEpoch()
	want := len(smallData().Images) * numa.Local2.Nodes
	if r.Steps != want {
		t.Errorf("full replication processed %d, want %d", r.Steps, want)
	}
}

// The parallel executor must train to the same quality as the
// simulator on the same plan: different interleaving, same statistics.
func TestSimParallelLossParity(t *testing.T) {
	run := func(exec core.ExecutorKind) float64 {
		_, eng := smallEngine(t, core.Plan{
			ModelRep: core.PerNode, DataRep: core.FullReplication,
			Executor: exec, Seed: 12,
		})
		return eng.RunEpochs(6)[5].Loss
	}
	sim := run(core.ExecSimulated)
	par := run(core.ExecParallel)
	// Hogwild interleaving differs from the deterministic simulator, so
	// exact losses differ; statistical parity means both converge to
	// the same near-zero regime.
	if sim > 0.15 || par > 0.15 {
		t.Errorf("losses diverge: sim %v, parallel %v (want both <= 0.15)", sim, par)
	}
	if math.Abs(sim-par) > 0.1 {
		t.Errorf("sim loss %v vs parallel loss %v differ by more than 0.1", sim, par)
	}
}

func TestWorkloadSnapshotPredict(t *testing.T) {
	wl, eng := smallEngine(t, core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 4})
	eng.RunEpochs(8)
	snap := eng.Snapshot()
	if snap.Workload != core.WorkloadNN || snap.Spec != "nn" {
		t.Errorf("snapshot identifies %s/%s", snap.Workload, snap.Spec)
	}
	ds := smallData()
	examples := make([]model.Example, 0, 20)
	want := make([]int, 0, 20)
	for i := 0; i < 20; i++ {
		examples = append(examples, model.DenseExample(ds.Images[i]))
		want = append(want, ds.Labels[i])
	}
	preds, err := wl.PredictBatch(snap.X, examples)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i, p := range preds {
		if int(p) == want[i] {
			hits++
		}
	}
	if hits < 14 {
		t.Errorf("snapshot predictions: %d/20 correct", hits)
	}
	if _, err := PredictBatch([]int{3, 2}, snap.X, examples); err == nil {
		t.Error("mismatched architecture accepted")
	}
}

// TestDatasetRegistry: every registered name builds a dataset carrying
// that name, deterministically, whose input width matches the
// architecture registered beside it; unknown names are refused. The
// serving catalog's test checks that one catalog shares each dataset.
func TestDatasetRegistry(t *testing.T) {
	for _, name := range BuiltinNames() {
		ds, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		sizes, err := Sizes(name)
		if err != nil {
			t.Fatal(err)
		}
		if ds.Name != name {
			t.Errorf("dataset %q carries name %q", name, ds.Name)
		}
		if len(ds.Images[0]) != sizes[0] {
			t.Errorf("dataset %q input dim %d != architecture %v", name, len(ds.Images[0]), sizes)
		}
		again, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ds, again) {
			t.Errorf("dataset %q not rebuilt identically", name)
		}
	}
	if _, err := Build("no-such-dataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := Sizes("no-such-dataset"); err == nil {
		t.Error("unknown architecture accepted")
	}
}

func TestSyntheticMNISTLearnable(t *testing.T) {
	ds := SyntheticMNIST(200, 64, 5, 0.05, 11)
	if len(ds.Images) != 200 || ds.Classes != 5 {
		t.Fatalf("dataset shape wrong")
	}
	counts := make([]int, 5)
	for i, img := range ds.Images {
		for _, v := range img {
			if v < 0 || v > 1 {
				t.Fatalf("pixel %v outside [0,1]", v)
			}
		}
		counts[ds.Labels[i]]++
	}
	for c, n := range counts {
		if n != 40 {
			t.Errorf("class %d has %d examples, want 40", c, n)
		}
	}
	// Same-class examples are closer than cross-class ones on average.
	dist := func(a, b []float64) float64 {
		var s float64
		for i := range a {
			d := a[i] - b[i]
			s += d * d
		}
		return s
	}
	same := dist(ds.Images[0], ds.Images[5]) // both class 0
	diff := dist(ds.Images[0], ds.Images[1]) // classes 0, 1
	if same >= diff {
		t.Errorf("intra-class distance %v >= inter-class %v", same, diff)
	}
}
