package factor

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dimmwitted/internal/core"
	"dimmwitted/internal/numa"
)

func TestNewGraphValidation(t *testing.T) {
	if _, err := NewGraph(2, []Factor{{Vars: []int32{0, 5}, Weight: 1}}); err == nil {
		t.Error("out-of-range variable accepted")
	}
	if _, err := NewGraph(2, []Factor{{Vars: nil, Weight: 1}}); err == nil {
		t.Error("empty factor accepted")
	}
	g, err := NewGraph(3, []Factor{{Vars: []int32{0, 1}, Weight: 1}, {Vars: []int32{1, 2}, Weight: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if g.Degree(1) != 2 || g.Degree(0) != 1 {
		t.Errorf("variable index wrong: degrees %d / %d", g.Degree(1), g.Degree(0))
	}
	if g.NNZ() != 4 {
		t.Errorf("NNZ = %d, want 4", g.NNZ())
	}
	// A repeated member is one incidence per occurrence; untouched
	// variables, the last one included, have none.
	e := edgeGraph(t)
	if e.Degree(3) != 3 || e.Degree(10) != 0 || e.Degree(11) != 0 {
		t.Errorf("edge graph degrees %d/%d/%d, want 3/0/0", e.Degree(3), e.Degree(10), e.Degree(11))
	}
}

func TestConditionalLogOdds(t *testing.T) {
	// Single attractive pairwise factor: if the neighbour is 1, the
	// log-odds for 1 should be +w; if 0, -w.
	g, err := NewGraph(2, []Factor{{Vars: []int32{0, 1}, Weight: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ConditionalLogOdds(0, []int8{0, 1}); got != 2 {
		t.Errorf("log-odds with neighbour=1: %v, want 2", got)
	}
	if got := g.ConditionalLogOdds(0, []int8{0, 0}); got != -2 {
		t.Errorf("log-odds with neighbour=0: %v, want -2", got)
	}
}

// The sampler kernel — atomic loads off the flat index — must agree
// bit for bit with the classic probe-and-restore evaluation, for every
// variable (zero-degree ones included): exhaustively over every
// assignment of edgeGraph, and over 8-bit assignment patterns of a
// generated graph.
func TestAtomicLogOddsMatchesClassic(t *testing.T) {
	for _, c := range []struct {
		g    *Graph
		bits int
	}{
		{edgeGraph(t), 12},
		{Generate(GenerateConfig{Vars: 16, Factors: 40, MaxArity: 3, WeightStd: 1, Seed: 5}), 8},
	} {
		g := c.g
		classic := make([]int8, g.NumVars)
		at := make([]int32, g.NumVars)
		for mask := 0; mask < 1<<c.bits; mask++ {
			for v := range classic {
				bit := (mask >> (v % c.bits)) & 1
				classic[v] = int8(bit)
				at[v] = int32(bit)
			}
			for v := 0; v < g.NumVars; v++ {
				want := g.ConditionalLogOdds(v, classic)
				if got := g.logOdds(v, at); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%d vars, var %d, mask %#x: kernel %v, classic %v", g.NumVars, v, mask, got, want)
				}
			}
		}
	}
}

func TestGenerateShape(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 200, Factors: 500, MaxArity: 3, WeightStd: 1, Seed: 1})
	if g.NumVars != 200 || len(g.Factors) != 500 {
		t.Fatalf("shape: %d vars, %d factors", g.NumVars, len(g.Factors))
	}
	for i, f := range g.Factors {
		if len(f.Vars) < 2 || len(f.Vars) > 3 {
			t.Fatalf("factor %d arity %d", i, len(f.Vars))
		}
		seen := map[int32]bool{}
		for _, v := range f.Vars {
			if seen[v] {
				t.Fatalf("factor %d repeats variable %d", i, v)
			}
			seen[v] = true
		}
	}
	// Degree skew: most-connected variable far above mean.
	maxDeg, total := 0, 0
	for v := 0; v < g.NumVars; v++ {
		d := g.Degree(v)
		total += d
		if d > maxDeg {
			maxDeg = d
		}
	}
	mean := float64(total) / float64(g.NumVars)
	if float64(maxDeg) < 5*mean {
		t.Errorf("degree not skewed: max %d, mean %.1f", maxDeg, mean)
	}
}

func TestPaleoAnalog(t *testing.T) {
	g := Paleo()
	if g.NumVars != 4000 || len(g.Factors) != 9000 {
		t.Errorf("paleo shape: %d vars, %d factors", g.NumVars, len(g.Factors))
	}
}

// runGibbs builds a workload engine for the graph, runs it for the
// given number of epochs (sweeps), and returns the pooled marginals.
func runGibbs(t *testing.T, g *Graph, plan core.Plan, epochs int) ([]float64, []core.EpochResult) {
	t.Helper()
	eng, err := core.NewWorkload(NewWorkload(g), plan)
	if err != nil {
		t.Fatal(err)
	}
	hist := eng.RunEpochs(epochs)
	return append([]float64(nil), eng.Model()...), hist
}

// The engine-run sampler must reproduce the pre-refactor RunSweeps
// marginals exactly: chain n seeds from seed+1+n, draws its sweep
// permutation then one flip per variable from its own generator, and
// (at chunk size 1) the simulated interleaver executes each chain's
// permutation in order. The golden values below were produced by the
// classic factor.Sampler at the commit before the workload refactor.
func TestSimulatedMatchesClassicSamplerGolden(t *testing.T) {
	g := Cycle5()
	cases := []struct {
		name   string
		plan   core.Plan
		epochs int
		want   []float64
	}{
		// factor.NewSampler(g, local2, SingleChain, 7).RunSweeps(40)
		{"single-chain/seed7", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 7}, 40,
			[]float64{0.45, 0.5, 0.45, 0.575, 0.5}},
		// factor.NewSampler(g, local2, ChainPerNode, 7).RunSweeps(40)
		{"chain-per-node/seed7", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 7}, 40,
			[]float64{0.4875, 0.55, 0.425, 0.4375, 0.4}},
		// factor.NewSampler(g, local2, SingleChain, 3).RunSweeps(25)
		{"single-chain/seed3", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 3}, 25,
			[]float64{0.76, 0.68, 0.52, 0.64, 0.56}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, _ := runGibbs(t, g, c.plan, c.epochs)
			for v := range c.want {
				if got[v] != c.want[v] {
					t.Errorf("marginal[%d] = %v, classic sampler %v", v, got[v], c.want[v])
				}
			}
		})
	}
}

func TestGibbsMatchesExactMarginals(t *testing.T) {
	g := Cycle5()
	exact, err := ExactMarginals(g)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runGibbs(t, g, core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 7}, 4000)
	for v := range exact {
		if math.Abs(got[v]-exact[v]) > 0.05 {
			t.Errorf("marginal[%d] = %.3f, exact %.3f", v, got[v], exact[v])
		}
	}
}

func TestParallelGibbsMatchesExactMarginals(t *testing.T) {
	g := Cycle5()
	exact, err := ExactMarginals(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		plan core.Plan
	}{
		{"hogwild-single-chain", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Executor: core.ExecParallel, Seed: 7}},
		{"chain-per-node", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Executor: core.ExecParallel, Seed: 11}},
	} {
		t.Run(c.name, func(t *testing.T) {
			got, _ := runGibbs(t, g, c.plan, 4000)
			for v := range exact {
				if math.Abs(got[v]-exact[v]) > 0.05 {
					t.Errorf("marginal[%d] = %.3f, exact %.3f", v, got[v], exact[v])
				}
			}
		})
	}
}

func TestPerCoreChainsSweepFullDomain(t *testing.T) {
	g := Pairs4()
	exact, err := ExactMarginals(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := core.Plan{ModelRep: core.PerCore, DataRep: core.FullReplication, Workers: 4, Seed: 13}
	got, hist := runGibbs(t, g, plan, 1500)
	// Every chain (one per worker) sweeps every variable once per epoch.
	if want := g.NumVars * 4; hist[0].Steps != want {
		t.Errorf("PerCore epoch ran %d samples, want %d (4 chains x %d vars)", hist[0].Steps, want, g.NumVars)
	}
	for v := range exact {
		if math.Abs(got[v]-exact[v]) > 0.05 {
			t.Errorf("pooled marginal[%d] = %.3f, exact %.3f", v, got[v], exact[v])
		}
	}
}

func TestPerNodeChainsPoolSamples(t *testing.T) {
	g := Pairs4()
	exact, err := ExactMarginals(g)
	if err != nil {
		t.Fatal(err)
	}
	got, hist := runGibbs(t, g, core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 11}, 3000)
	var samples int
	for _, er := range hist {
		samples += er.Steps
	}
	if samples != 3000*4*2 {
		t.Errorf("samples = %d, want 24000 (2 chains)", samples)
	}
	for v := range exact {
		if math.Abs(got[v]-exact[v]) > 0.05 {
			t.Errorf("pooled marginal[%d] = %.3f, exact %.3f", v, got[v], exact[v])
		}
	}
}

func TestPerNodeThroughputBeatsSingleChain(t *testing.T) {
	// Figure 17(b): DimmWitted's chain-per-node achieves ~4x the
	// sample throughput of the single PerMachine chain.
	g := Paleo()
	throughput := func(plan core.Plan) float64 {
		_, hist := runGibbs(t, g, plan, 2)
		var steps int
		for _, er := range hist {
			steps += er.Steps
		}
		return float64(steps) / hist[len(hist)-1].CumTime.Seconds()
	}
	// The classic baseline is NUMA-oblivious: OS-interleaved storage.
	single := throughput(core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Placement: core.PlacementOS, Seed: 1})
	perNode := throughput(core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 1})
	if ratio := perNode / single; ratio < 1.5 {
		t.Errorf("PerNode/PerMachine Gibbs throughput ratio = %.2f, want >= 1.5 (paper: ~4)", ratio)
	}
}

func TestExactMarginalsRejectsLargeGraphs(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 30, Factors: 10, MaxArity: 2, WeightStd: 1, Seed: 1})
	if _, err := ExactMarginals(g); err == nil {
		t.Error("exact inference on 30 variables accepted")
	}
}

func TestGibbsDeterministic(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 50, Factors: 100, MaxArity: 2, WeightStd: 1, Seed: 3})
	run := func() []float64 {
		got, _ := runGibbs(t, g, core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 9}, 50)
		return got
	}
	a, b := run(), run()
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("marginal %d differs: %v vs %v", v, a[v], b[v])
		}
	}
}

func TestDiscardBurnIn(t *testing.T) {
	// Weak potentials keep the chain mixing between modes; strong
	// agreement weights would make the distribution bimodal and the
	// marginal estimate initialization-dependent.
	g, err := NewGraph(3, []Factor{{Vars: []int32{0, 1}, Weight: 0.7}, {Vars: []int32{1, 2}, Weight: 0.7}})
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(g)
	eng, err := core.NewWorkload(wl, core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunEpochs(50)
	wl.DiscardBurnIn()
	eng.RunEpochs(2000)
	exact, err := ExactMarginals(g)
	if err != nil {
		t.Fatal(err)
	}
	got := eng.Model()
	for v := range exact {
		if math.Abs(got[v]-exact[v]) > 0.06 {
			t.Errorf("post-burn-in marginal[%d] = %.3f, exact %.3f", v, got[v], exact[v])
		}
	}
}

func TestWorkloadPlanValidation(t *testing.T) {
	g := Pairs4()
	if _, err := core.NewWorkload(NewWorkload(g), core.Plan{ModelRep: core.PerNode, DataRep: core.Sharding}); err == nil {
		t.Error("multi-chain Sharding accepted (chains would never resample part of the domain)")
	}
	if _, err := core.NewWorkload(NewWorkload(g), core.Plan{DataRep: core.Importance}); err == nil {
		t.Error("Importance data replication accepted for Gibbs")
	}
}

func TestWorkloadOptimize(t *testing.T) {
	wl := NewWorkload(Pairs4())
	plan, err := wl.Optimize(numa.Local2, core.ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ModelRep != core.PerNode || plan.DataRep != core.FullReplication {
		t.Errorf("multi-socket optimizer chose %s/%s, want PerNode/FullReplication", plan.ModelRep, plan.DataRep)
	}
	one := numa.Local2
	one.Nodes, one.Name = 1, "one-node"
	plan, err = NewWorkload(Pairs4()).Optimize(one, core.ExecSimulated)
	if err != nil {
		t.Fatal(err)
	}
	if plan.ModelRep != core.PerMachine {
		t.Errorf("single-socket optimizer chose %s, want PerMachine", plan.ModelRep)
	}
}

// TestGraphRegistry: every registered name builds a graph carrying
// that name, deterministically; unknown names are refused. The serving
// catalog's test checks that one catalog shares each graph.
func TestGraphRegistry(t *testing.T) {
	for _, name := range BuiltinNames() {
		g, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.Name != name {
			t.Errorf("graph %q carries name %q", name, g.Name)
		}
		again, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, again) {
			t.Errorf("graph %q not rebuilt identically", name)
		}
	}
	if _, err := Build("no-such-graph"); err == nil {
		t.Error("unknown graph accepted")
	}
}

// Property: conditional log-odds are antisymmetric under flipping all
// other variables for purely pairwise graphs with symmetric potentials.
func TestLogOddsFlipProperty(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 20, Factors: 40, MaxArity: 2, WeightStd: 1, Seed: 5})
	f := func(varSel uint8, bits uint32) bool {
		v := int(varSel) % g.NumVars
		assign := make([]int8, g.NumVars)
		flipped := make([]int8, g.NumVars)
		for i := range assign {
			assign[i] = int8((bits >> (uint(i) % 32)) & 1)
			flipped[i] = 1 - assign[i]
		}
		lo := g.ConditionalLogOdds(v, assign)
		loF := g.ConditionalLogOdds(v, flipped)
		return math.Abs(lo+loF) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
