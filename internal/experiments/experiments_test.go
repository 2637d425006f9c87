package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// run executes a driver in quick mode and sanity-checks its table.
func run(t *testing.T, name string) *Result {
	t.Helper()
	drv, ok := Lookup(name)
	if !ok {
		t.Fatalf("no driver %q", name)
	}
	res := drv(true)
	if res.Table == nil || len(res.Table.Rows) == 0 {
		t.Fatalf("%s produced an empty table", name)
	}
	var buf bytes.Buffer
	res.Table.Fprint(&buf)
	if !strings.Contains(buf.String(), name) {
		t.Errorf("%s table print lacks its name", name)
	}
	return res
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig6", "fig7a", "fig7b", "fig8a", "fig8b", "fig9a", "fig9b",
		"fig11", "fig12a", "fig12b", "fig13", "fig14", "fig15", "fig16a", "fig16b",
		"fig17a", "fig17b", "fig20", "fig21", "fig22", "appA"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for i, w := range want {
		if reg[i].Name != w {
			t.Errorf("registry[%d] = %s, want %s", i, reg[i].Name, w)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

func TestFig6CostModel(t *testing.T) {
	res := run(t, "fig6")
	// The LP incidence matrix has n_i = 2, so Σnᵢ² = 2·Σnᵢ exactly.
	if got, want := res.Metrics["sumN2/amazon-lp"], 2*res.Metrics["sumN/amazon-lp"]; got != want {
		t.Errorf("amazon Σnᵢ² = %v, want %v", got, want)
	}
	// Text data has skewed rows: Σnᵢ² >> Σnᵢ.
	if res.Metrics["sumN2/rcv1"] < 10*res.Metrics["sumN/rcv1"] {
		t.Error("rcv1 Σnᵢ² not much larger than Σnᵢ")
	}
}

func TestFig7aStatisticalEfficiencyComparable(t *testing.T) {
	res := run(t, "fig7a")
	// Both methods converge on the SVM tasks and their epoch counts
	// are within an order of magnitude (paper: within ~50%).
	for _, label := range []string{"SVM1 (rcv1)", "SVM2 (reuters)"} {
		row := res.Metrics["rowEpochs/"+label]
		col := res.Metrics["colEpochs/"+label]
		if row <= 0 || col <= 0 {
			t.Fatalf("%s: nonpositive epochs %v/%v", label, row, col)
		}
		ratio := row / col
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("%s: row/col epoch ratio %v outside [0.1, 10]", label, ratio)
		}
	}
}

func TestFig7bCrossover(t *testing.T) {
	res := run(t, "fig7b")
	mid := res.Metrics["rowOverCol/0.10"]
	dense := res.Metrics["rowOverCol/1.00"]
	if !(mid > 1) {
		t.Errorf("at 10%% density row/col = %v, want > 1 (column wins)", mid)
	}
	if !(dense < 1) {
		t.Errorf("at full density row/col = %v, want < 1 (row wins)", dense)
	}
	// The cost-model ratio moves the same direction.
	if res.Metrics["costRatio/0.10"] <= res.Metrics["costRatio/1.00"] {
		t.Error("cost ratio not decreasing with density")
	}
}

func TestFig8aEpochOrdering(t *testing.T) {
	res := run(t, "fig8a")
	pm := res.Metrics["epochs/PerMachine/10"]
	pn := res.Metrics["epochs/PerNode/10"]
	pc := res.Metrics["epochs/PerCore/10"]
	if !(pm <= pn && pn <= pc) {
		t.Errorf("epoch ordering violated: PerMachine %v, PerNode %v, PerCore %v", pm, pn, pc)
	}
}

func TestFig8bEpochTimeGap(t *testing.T) {
	res := run(t, "fig8b")
	if r := res.Metrics["perMachineOverPerNode"]; r < 5 {
		t.Errorf("PerMachine/PerNode epoch time = %v, want >= 5 (paper ~23)", r)
	}
	if res.Metrics["epochTime/PerCore"] >= res.Metrics["epochTime/PerNode"] {
		t.Error("PerCore epoch not cheaper than PerNode")
	}
}

func TestFig9aFullReplicationEpochs(t *testing.T) {
	res := run(t, "fig9a")
	if res.Metrics["epochs/FullReplication/10"] > res.Metrics["epochs/Sharding/10"] {
		t.Errorf("FullRepl epochs (%v) above Sharding (%v) at 10%%",
			res.Metrics["epochs/FullReplication/10"], res.Metrics["epochs/Sharding/10"])
	}
}

func TestFig9bEpochCostScalesWithNodes(t *testing.T) {
	res := run(t, "fig9b")
	r2 := res.Metrics["ratio/local2"]
	r8 := res.Metrics["ratio/local8"]
	if r2 < 1.5 || r2 > 3 {
		t.Errorf("local2 FullRepl/Sharding = %v, want ~2", r2)
	}
	if r8 <= r2 {
		t.Errorf("ratio not growing with nodes: local2 %v, local8 %v", r2, r8)
	}
}

func TestFig11DimmWittedWins(t *testing.T) {
	res := run(t, "fig11")
	for _, task := range []string{"SVM/Reuters", "LS/Forest", "LP/Amazon"} {
		dw := res.Metrics["t50/"+task+"/DimmWitted"]
		if dw <= 0 {
			t.Fatalf("%s: no DW time", task)
		}
		for _, sys := range []string{"GraphLab", "GraphChi", "MLlib", "Hogwild!"} {
			other, ok := res.Metrics["t50/"+task+"/"+sys]
			if !ok {
				continue
			}
			if dw > other {
				t.Errorf("%s: DW (%vs) slower than %s (%vs) at 50%%", task, dw, sys, other)
			}
		}
	}
}

func TestFig12aAccessDominance(t *testing.T) {
	res := run(t, "fig12a")
	// SVM: row-wise reaches 10% faster than column.
	if res.Metrics["row/SVM/RCV1/10"] >= res.Metrics["col/SVM/RCV1/10"] {
		t.Errorf("SVM: row (%v) not faster than col (%v) at 10%%",
			res.Metrics["row/SVM/RCV1/10"], res.Metrics["col/SVM/RCV1/10"])
	}
	// LP: row-wise fails to reach 1% (timeout), column reaches it.
	if res.Metrics["rowTimeout/LP/Amazon/1"] != 1 {
		t.Error("LP row-wise unexpectedly reached 1%")
	}
	if res.Metrics["col/LP/Amazon/1"] <= 0 {
		t.Error("LP column-wise never reached 1%")
	}
}

func TestFig12bModelRepDominance(t *testing.T) {
	res := run(t, "fig12b")
	// SVM at 50%: PerNode beats PerMachine.
	if res.Metrics["PerNode/SVM/RCV1/50"] >= res.Metrics["PerMachine/SVM/RCV1/50"] {
		t.Errorf("SVM: PerNode (%v) not faster than PerMachine (%v)",
			res.Metrics["PerNode/SVM/RCV1/50"], res.Metrics["PerMachine/SVM/RCV1/50"])
	}
	// LP at 1%: PerMachine beats PerNode.
	if res.Metrics["PerMachine/LP/Amazon/1"] >= res.Metrics["PerNode/LP/Amazon/1"] {
		t.Errorf("LP: PerMachine (%v) not faster than PerNode (%v)",
			res.Metrics["PerMachine/LP/Amazon/1"], res.Metrics["PerNode/LP/Amazon/1"])
	}
}

func TestFig13Throughput(t *testing.T) {
	res := run(t, "fig13")
	dw := res.Metrics["gbps/DimmWitted/parallel sum"]
	for _, sys := range []string{"GraphLab", "GraphChi", "MLlib", "Hogwild!"} {
		v, ok := res.Metrics["gbps/"+sys+"/parallel sum"]
		if !ok {
			continue
		}
		if dw < v {
			t.Errorf("parallel sum: DW (%v GB/s) below %s (%v)", dw, sys, v)
		}
	}
	hw := res.Metrics["gbps/Hogwild!/parallel sum"]
	if dw/hw < 1.2 {
		t.Errorf("DW/Hogwild sum throughput = %v, want >= 1.2 (paper: 1.6)", dw/hw)
	}
}

func TestFig14PlanChoices(t *testing.T) {
	res := run(t, "fig14")
	for _, label := range []string{"SVM/Reuters", "SVM/RCV1", "SVM/Music", "LR/RCV1", "LS/Music"} {
		if res.Metrics["row/"+label] != 1 {
			t.Errorf("%s not planned row-wise", label)
		}
	}
	for _, label := range []string{"LP/Amazon", "LP/Google", "QP/Amazon", "QP/Google"} {
		if res.Metrics["col/"+label] != 1 {
			t.Errorf("%s not planned column-wise", label)
		}
	}
}

func TestFig15RatioGrowsWithSockets(t *testing.T) {
	res := run(t, "fig15")
	if res.Metrics["svm/local8"] <= res.Metrics["svm/local2"] {
		t.Errorf("SVM row/col ratio flat: local2 %v, local8 %v",
			res.Metrics["svm/local2"], res.Metrics["svm/local8"])
	}
	if res.Metrics["lp/local8"] <= res.Metrics["lp/local2"] {
		t.Errorf("LP row/col ratio flat: local2 %v, local8 %v",
			res.Metrics["lp/local2"], res.Metrics["lp/local8"])
	}
}

func TestFig16aPerNodeAdvantageGrows(t *testing.T) {
	res := run(t, "fig16a")
	r2, r8 := res.Metrics["ratio/local2"], res.Metrics["ratio/local8"]
	if r2 <= 1 {
		t.Errorf("local2 PerMachine/PerNode = %v, want > 1", r2)
	}
	if r8 <= r2 {
		t.Errorf("advantage not growing: local2 %v, local8 %v", r2, r8)
	}
}

func TestFig16bSparsityCrossover(t *testing.T) {
	res := run(t, "fig16b")
	sparse := res.Metrics["ratio/0.01"]
	dense := res.Metrics["ratio/1.00"]
	if sparse >= dense {
		t.Errorf("ratio not increasing with density: 1%% %v vs 100%% %v", sparse, dense)
	}
	if dense <= 1 {
		t.Errorf("dense updates: PerMachine/PerNode = %v, want > 1", dense)
	}
	if sparse > 2 {
		t.Errorf("sparse updates: PerMachine/PerNode = %v, want near/below 1", sparse)
	}
}

func TestFig17aErrorLevelDependence(t *testing.T) {
	res := run(t, "fig17a")
	// At high error both strategies converge and Sharding is
	// competitive (ratio not far below 1); at low error only
	// FullReplication reaches the target — the paper's low-error
	// advantage in its strongest form.
	if ratio, ok := res.Metrics["ratio/400"]; ok && ratio > 3 {
		t.Errorf("FullRepl/Sharding at 400%% = %v, want competitive", ratio)
	}
	lowAdvantage := res.Metrics["fullOnly/50"] == 1 || res.Metrics["fullOnly/10"] == 1
	if ratio, ok := res.Metrics["ratio/50"]; ok && ratio < 1.05 {
		lowAdvantage = true
	}
	if ratio, ok := res.Metrics["ratio/10"]; ok && ratio < 1.05 {
		lowAdvantage = true
	}
	if !lowAdvantage {
		t.Error("no low-error FullReplication advantage observed")
	}
}

func TestFig17bExtensionSpeedups(t *testing.T) {
	res := run(t, "fig17b")
	if res.Metrics["gibbsSpeedup"] < 1.5 {
		t.Errorf("Gibbs speedup = %v, want >= 1.5 (paper ~4)", res.Metrics["gibbsSpeedup"])
	}
	if res.Metrics["nnSpeedup"] < 5 {
		t.Errorf("NN speedup = %v, want >= 5 (paper >10)", res.Metrics["nnSpeedup"])
	}
}

func TestFig20SpeedupShapes(t *testing.T) {
	res := run(t, "fig20")
	if res.Metrics["percore/12"] < res.Metrics["permachine/12"] {
		t.Errorf("PerCore speedup (%v) below PerMachine (%v) at 12 threads",
			res.Metrics["percore/12"], res.Metrics["permachine/12"])
	}
	if res.Metrics["percore/12"] < 6 {
		t.Errorf("PerCore speedup at 12 threads = %v, want near-linear", res.Metrics["percore/12"])
	}
}

func TestFig21LinearScaling(t *testing.T) {
	res := run(t, "fig21")
	t1 := res.Metrics["epochTime/0.10"]
	t10 := res.Metrics["epochTime/1.00"]
	if t10 <= t1 {
		t.Fatal("epoch time not growing with scale")
	}
	ratio := t10 / t1
	if ratio < 5 || ratio > 20 {
		t.Errorf("10x rows -> %vx time, want ~10x (linear)", ratio)
	}
}

func TestFig22ImportanceSampling(t *testing.T) {
	res := run(t, "fig22")
	// The 10% sample processes a tenth of the tuples, so it reaches
	// mid-range losses faster than the saturated variant.
	if res.Metrics["Imp10/50"] >= res.Metrics["Imp100/50"] {
		t.Errorf("Importance(10%%) at 50%% (%v) not faster than Importance(100%%) (%v)",
			res.Metrics["Imp10/50"], res.Metrics["Imp100/50"])
	}
}

func TestAppAMicroStudies(t *testing.T) {
	res := run(t, "appA")
	if res.Metrics["collocation"] < 1.1 {
		t.Errorf("NUMA collocation speedup = %v, want > 1.1 (paper: up to 2x)", res.Metrics["collocation"])
	}
	if res.Metrics["denseOnDense"] <= 1 {
		t.Errorf("dense storage on dense data speedup = %v, want > 1", res.Metrics["denseOnDense"])
	}
	if res.Metrics["sparseOnSparse"] <= 1 {
		t.Errorf("sparse storage on sparse data speedup = %v, want > 1", res.Metrics["sparseOnSparse"])
	}
}
