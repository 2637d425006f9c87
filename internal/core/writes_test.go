package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/vec"
)

// rowSpecCase is one spec on rows it trains on.
type rowSpecCase struct {
	name string
	spec model.Spec
	ds   *data.Dataset
	step float64
}

// sparseUnitCases lists every sparse-update GLM spec on sparse and
// graph rows: the specs whose row steps run the delta executor's
// sparse flush.
func sparseUnitCases() []rowSpecCase {
	sparse := data.GenerateSparse(data.SparseConfig{
		Name: "contract", Rows: 600, Cols: 300, NNZPerRow: 8, Noise: 0.05, Seed: 21,
	})
	regress := data.GenerateSparse(data.SparseConfig{
		Name: "contract-ls", Rows: 600, Cols: 300, NNZPerRow: 8, Noise: 0.05, Regression: true, Seed: 22,
	})
	graph := data.GenerateGraph(data.GraphConfig{Name: "contract-graph", Nodes: 400, EdgesPerNode: 2, Seed: 23})
	return []rowSpecCase{
		{"svm", model.NewSVM(), sparse, 0.1},
		{"svm-l2", model.NewSVMRegularized(0.1), sparse, 0.1},
		{"lr", model.NewLR(), sparse, 0.1},
		{"ls", model.NewLS(), regress, 0.01},
		{"lp", model.NewLP(), graph.VertexCoverLP(), 0.05},
		{"qp", model.NewQP(), graph.SmoothingQP(0.3, 24), 0.05},
	}
}

// TestUnitCoordsWriteContract checks the UnitCoordser contract the
// delta executor's sparse flush relies on, step by step for every
// sparse-unit GLM spec: a step changes X only at coordinates StepUnits
// marks in the dirty set, and a step that reports ModelWrites == 0
// changes nothing and marks nothing. A write left unmarked would be
// lost at the flush. Two passes over the rows move the model off zero,
// so the unregularised SVM also takes steps whose margin is at least 1
// and which write nothing; the test requires at least one, so that
// skip is exercised.
func TestUnitCoordsWriteContract(t *testing.T) {
	for _, c := range sparseUnitCases() {
		g := NewGLM(c.spec, c.ds).(*glmWorkload)
		g.Bind(Plan{Access: model.RowWise})
		if !g.SparseUnits() {
			t.Fatalf("%s: SparseUnits is false, the contract does not apply", c.name)
		}
		ws := g.NewReplica(0, 1)
		before := make([]float64, len(ws.X))
		listed := make([]bool, len(ws.X))
		dirty := vec.NewDirty(len(ws.X))
		silent := 0
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < c.ds.Rows(); i++ {
				copy(before, ws.X)
				st := g.StepUnits([]int{i}, ws, c.step, dirty)
				marked := dirty.List()
				for _, j := range marked {
					listed[j] = true
				}
				changed := false
				for j, v := range ws.X {
					if math.Float64bits(v) == math.Float64bits(before[j]) {
						continue
					}
					changed = true
					if !listed[j] {
						t.Fatalf("%s pass %d row %d: step changed coordinate %d, dirty set %v", c.name, pass, i, j, marked)
					}
				}
				for _, j := range marked {
					listed[j] = false
				}
				if st.ModelWrites == 0 {
					silent++
					if changed || len(marked) > 0 {
						t.Fatalf("%s pass %d row %d: step reported ModelWrites 0 but changed X (%v) or marked %v", c.name, pass, i, changed, marked)
					}
				}
				dirty.Reset()
			}
		}
		if c.name == "svm" && silent == 0 {
			t.Errorf("svm: no step reported 0 writes; the executor's skip of non-writing rows is not exercised")
		}
		t.Logf("%s: %d of %d steps reported 0 writes", c.name, silent, 2*c.ds.Rows())
	}
}

// TestRowStepsMatchRowStep checks each spec's chunk step against its
// row step: RowSteps over a chunk leaves X bitwise where RowStep row by
// row leaves it, returns the summed Stats, and marks exactly the union
// of the write supports of the rows that wrote — a row's columns, or
// the accumulator for parallel sum. Chunks of 1 to 40 rows follow a
// random order for two passes, so the SVM also meets rows that write
// nothing.
func TestRowStepsMatchRowStep(t *testing.T) {
	sparse := data.GenerateSparse(data.SparseConfig{
		Name: "chunks-sum", Rows: 600, Cols: 300, NNZPerRow: 8, Noise: 0.05, Seed: 25,
	})
	cases := append(sparseUnitCases(), rowSpecCase{"sum", model.NewParallelSum(), sparse, 1})
	for _, c := range cases {
		chunked, rowwise := c.spec.NewReplica(c.ds), c.spec.NewReplica(c.ds)
		dirty := vec.NewDirty(len(chunked.X))
		rng := rand.New(rand.NewSource(26))
		order := append(rng.Perm(c.ds.Rows()), rng.Perm(c.ds.Rows())...)
		for len(order) > 0 {
			chunk := order[:min(len(order), 1+rng.Intn(40))]
			order = order[len(chunk):]
			got := c.spec.RowSteps(c.ds, chunk, chunked, c.step, dirty)
			var want model.Stats
			var support []int32
			for _, i := range chunk {
				st := c.spec.RowStep(c.ds, i, rowwise, c.step)
				want.Add(st)
				if st.ModelWrites == 0 {
					continue
				}
				if c.spec.DenseUpdate() {
					support = append(support, 0)
				} else {
					idx, _ := c.ds.A.Row(i)
					support = append(support, idx...)
				}
			}
			if got != want {
				t.Fatalf("%s chunk %v: RowSteps stats %+v, RowStep sum %+v", c.name, chunk, got, want)
			}
			for j := range chunked.X {
				if math.Float64bits(chunked.X[j]) != math.Float64bits(rowwise.X[j]) {
					t.Fatalf("%s chunk %v: x[%d] = %v after RowSteps, %v after RowStep", c.name, chunk, j, chunked.X[j], rowwise.X[j])
				}
			}
			slices.Sort(support)
			marked := slices.Clone(dirty.List())
			slices.Sort(marked)
			if !slices.Equal(marked, slices.Compact(support)) {
				t.Fatalf("%s chunk %v: dirty set %v, union of written supports %v", c.name, chunk, marked, slices.Compact(support))
			}
			dirty.Reset()
		}
	}
}
