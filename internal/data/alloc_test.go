//go:build !race

package data

import (
	"math/rand"
	"slices"
	"testing"
)

// TestStreamAppendAllocs is the append path's allocation budget: an
// Append allocates a fixed number of objects (the published view)
// however many rows it carries, so no row pays for a sort buffer or a
// sort closure. The store's own regrowth is amortized and is not what
// this budget measures, so after a warm-up append the test reserves the
// store's capacity for the measured appends. The race detector's
// instrumentation allocates, so the file is excluded under -race.
func TestStreamAppendAllocs(t *testing.T) {
	const cols, nnz, runs = 1000, 40, 5
	perAppend := func(n int) float64 {
		rng := rand.New(rand.NewSource(int64(n)))
		rows := make([]Row, n)
		for i := range rows {
			for k := 0; k < nnz; k++ {
				rows[i].Indices = append(rows[i].Indices, int32(rng.Intn(cols)))
				rows[i].Values = append(rows[i].Values, rng.NormFloat64())
			}
			rows[i].Label = 1
		}
		h := NewStream("allocs", cols, Classification)
		if _, err := h.Append(rows); err != nil {
			t.Fatal(err)
		}
		// AllocsPerRun makes one warm-up call before its measured runs.
		h.rowPtr = slices.Grow(h.rowPtr, (runs+1)*n)
		h.labels = slices.Grow(h.labels, (runs+1)*n)
		h.colIdx = slices.Grow(h.colIdx, (runs+1)*n*nnz)
		h.vals = slices.Grow(h.vals, (runs+1)*n*nnz)
		h.marks = slices.Grow(h.marks, runs+1)
		return testing.AllocsPerRun(runs, func() {
			if _, err := h.Append(rows); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := perAppend(100), perAppend(1000)
	t.Logf("allocations per Append: %v at 100 rows, %v at 1000 rows", small, large)
	if small != large {
		t.Errorf("allocations per Append grow with rows: %v at 100, %v at 1000", small, large)
	}
}
