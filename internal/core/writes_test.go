package core

import (
	"math"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
)

// TestUnitCoordsWriteContract checks the UnitCoordser contract the
// delta executor's dirty list relies on, step by step for every
// sparse-unit GLM spec: a step changes X only at UnitCoords(unit), and
// a step that changes X reports ModelWrites > 0. The executor lists a
// row's coordinates only after a step that reports writes, so a spec
// that wrote while reporting none would lose that update at the flush.
// Two passes over the rows move the model off zero, so the unregularised
// SVM also takes steps whose margin is at least 1 and which write
// nothing; the test requires at least one, so that skip is exercised.
func TestUnitCoordsWriteContract(t *testing.T) {
	sparse := data.GenerateSparse(data.SparseConfig{
		Name: "contract", Rows: 600, Cols: 300, NNZPerRow: 8, Noise: 0.05, Seed: 21,
	})
	regress := data.GenerateSparse(data.SparseConfig{
		Name: "contract-ls", Rows: 600, Cols: 300, NNZPerRow: 8, Noise: 0.05, Regression: true, Seed: 22,
	})
	graph := data.GenerateGraph(data.GraphConfig{Name: "contract-graph", Nodes: 400, EdgesPerNode: 2, Seed: 23})
	cases := []struct {
		name string
		spec model.Spec
		ds   *data.Dataset
		step float64
	}{
		{"svm", model.NewSVM(), sparse, 0.1},
		{"svm-l2", model.NewSVMRegularized(0.1), sparse, 0.1},
		{"lr", model.NewLR(), sparse, 0.1},
		{"ls", model.NewLS(), regress, 0.01},
		{"lp", model.NewLP(), graph.VertexCoverLP(), 0.05},
		{"qp", model.NewQP(), graph.SmoothingQP(0.3, 24), 0.05},
	}
	for _, c := range cases {
		g := NewGLM(c.spec, c.ds).(*glmWorkload)
		g.Bind(Plan{Access: model.RowWise})
		if !g.SparseUnits() {
			t.Fatalf("%s: SparseUnits is false, the contract does not apply", c.name)
		}
		ws := g.NewReplica(0, 1)
		before := make([]float64, len(ws.X))
		listed := make([]bool, len(ws.X))
		silent := 0
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < c.ds.Rows(); i++ {
				copy(before, ws.X)
				st := g.Step(i, ws, c.step, nil, nil)
				coords := g.UnitCoords(i)
				for _, j := range coords {
					listed[j] = true
				}
				changed := false
				for j, v := range ws.X {
					if math.Float64bits(v) == math.Float64bits(before[j]) {
						continue
					}
					changed = true
					if !listed[j] {
						t.Fatalf("%s pass %d row %d: step changed coordinate %d outside UnitCoords %v", c.name, pass, i, j, coords)
					}
				}
				for _, j := range coords {
					listed[j] = false
				}
				if changed && st.ModelWrites == 0 {
					t.Fatalf("%s pass %d row %d: step changed X but reported ModelWrites 0", c.name, pass, i)
				}
				if st.ModelWrites == 0 {
					silent++
				}
			}
		}
		if c.name == "svm" && silent == 0 {
			t.Errorf("svm: no step reported 0 writes; the executor's skip of non-writing rows is not exercised")
		}
		t.Logf("%s: %d of %d steps reported 0 writes", c.name, silent, 2*c.ds.Rows())
	}
}
