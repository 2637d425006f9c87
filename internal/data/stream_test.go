package data

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dimmwitted/internal/mat"
)

// streamRows generates deterministic sparse rows for stream tests.
func streamRows(seed int64, n, cols int) []Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]Row, n)
	for i := range rows {
		nnz := 1 + rng.Intn(5)
		seen := map[int32]bool{}
		for len(rows[i].Indices) < nnz {
			c := int32(rng.Intn(cols))
			if seen[c] {
				continue
			}
			seen[c] = true
			rows[i].Indices = append(rows[i].Indices, c)
			rows[i].Values = append(rows[i].Values, rng.NormFloat64())
		}
		if rng.Intn(2) == 0 {
			rows[i].Label = 1
		} else {
			rows[i].Label = -1
		}
	}
	return rows
}

// datasetsEqual compares two views' matrices and labels entry by entry.
func datasetsEqual(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.NNZ() != b.NNZ() {
		t.Fatalf("shape %dx%d/%d vs %dx%d/%d",
			a.Rows(), a.Cols(), a.NNZ(), b.Rows(), b.Cols(), b.NNZ())
	}
	for i := range a.A.RowPtr {
		if a.A.RowPtr[i] != b.A.RowPtr[i] {
			t.Fatalf("rowptr[%d] = %d vs %d", i, a.A.RowPtr[i], b.A.RowPtr[i])
		}
	}
	for k := range a.A.ColIdx {
		if a.A.ColIdx[k] != b.A.ColIdx[k] || a.A.Vals[k] != b.A.Vals[k] {
			t.Fatalf("entry %d = (%d,%v) vs (%d,%v)",
				k, a.A.ColIdx[k], a.A.Vals[k], b.A.ColIdx[k], b.A.Vals[k])
		}
	}
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatalf("label %d = %v vs %v", i, a.Labels[i], b.Labels[i])
		}
	}
}

// TestStreamChunkedAppendMatchesSingle: ingesting N rows in k chunks
// publishes the same matrix as ingesting them in one chunk — chunking
// is invisible to the final view.
func TestStreamChunkedAppendMatchesSingle(t *testing.T) {
	const cols = 40
	rows := streamRows(7, 100, cols)

	chunked := NewStream("test-chunked", cols, Classification)
	for i := 0; i < len(rows); i += 25 {
		if _, err := chunked.Append(rows[i : i+25]); err != nil {
			t.Fatal(err)
		}
	}
	single := NewStream("test-single", cols, Classification)
	if _, err := single.Append(rows); err != nil {
		t.Fatal(err)
	}

	cv, sv := chunked.View(), single.View()
	datasetsEqual(t, cv, sv)
	if err := cv.Validate(); err != nil {
		t.Fatal(err)
	}
	// Four appends after the empty version 1, versus one.
	if cv.Version != 5 || sv.Version != 2 {
		t.Fatalf("versions = %d/%d, want 5/2", cv.Version, sv.Version)
	}
}

// TestStreamRowNormalization: appends normalise rows to the CSR
// invariants — sparse entries sorted by column with duplicates summed,
// dense zeros dropped.
func TestStreamRowNormalization(t *testing.T) {
	h := NewStream("test-normalize", 6, Regression)
	view, err := h.Append([]Row{
		{Indices: []int32{4, 1, 4, 0}, Values: []float64{1, 2, 3, 4}, Label: 0.5},
		{Dense: []float64{0, 7, 0, 0, 8, 0}, Label: -0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
	idx, vals := view.A.Row(0)
	if len(idx) != 3 || idx[0] != 0 || idx[1] != 1 || idx[2] != 4 {
		t.Fatalf("row 0 columns = %v, want [0 1 4]", idx)
	}
	if vals[0] != 4 || vals[1] != 2 || vals[2] != 1+3 {
		t.Fatalf("row 0 values = %v, want [4 2 4] (duplicate column summed)", vals)
	}
	idx, vals = view.A.Row(1)
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 4 || vals[0] != 7 || vals[1] != 8 {
		t.Fatalf("row 1 = %v/%v, want zeros dropped", idx, vals)
	}
	if view.Labels[0] != 0.5 || view.Labels[1] != -0.5 {
		t.Fatalf("labels = %v", view.Labels)
	}

	// Duplicates sum in request order even past 12 entries, where an
	// unstable sort may reorder them: (1e16 + 1) - 1e16 is 0 in
	// float64, while summing the 1 last gives 1.
	const dup = 2
	big := 1e16
	idx32 := []int32{12, dup, 11, 10, dup, 9, 8, 7, 6, dup, 5, 4, 3, 1, 0, 13}
	dupVals := []float64{big, 1, -big}
	rowVals := make([]float64, len(idx32))
	for i, c := range idx32 {
		if c == dup {
			rowVals[i], dupVals = dupVals[0], dupVals[1:]
		} else {
			rowVals[i] = float64(c) + 0.5
		}
	}
	wide := NewStream("test-normalize-dup", 16, Regression)
	view, err = wide.Append([]Row{{Indices: idx32, Values: rowVals}})
	if err != nil {
		t.Fatal(err)
	}
	if err := view.Validate(); err != nil {
		t.Fatal(err)
	}
	idx, vals = view.A.Row(0)
	if len(idx) != 14 {
		t.Fatalf("wide row has %d columns, want 14", len(idx))
	}
	for k, c := range idx {
		want := float64(c) + 0.5
		if c == dup {
			want = (big + 1) - big
		}
		if int(c) != k || vals[k] != want {
			t.Fatalf("wide row entry %d = (%d, %v), want (%d, %v)", k, c, vals[k], k, want)
		}
	}
}

// TestStreamViewImmutableUnderAppend is the epoch-stability contract:
// a published view never changes, no matter how much the stream grows
// after it was taken.
func TestStreamViewImmutableUnderAppend(t *testing.T) {
	const cols = 30
	h := NewStream("test-immutable", cols, Classification)
	first := streamRows(11, 20, cols)
	old, err := h.Append(first)
	if err != nil {
		t.Fatal(err)
	}
	wantNNZ := old.NNZ()
	sum := 0.0
	for _, v := range old.A.Vals {
		sum += v
	}

	// Grow the stream far enough to force backing-array reallocations.
	for i := 0; i < 10; i++ {
		if _, err := h.Append(streamRows(int64(100+i), 50, cols)); err != nil {
			t.Fatal(err)
		}
	}

	if old.Rows() != 20 || old.NNZ() != wantNNZ {
		t.Fatalf("old view shape drifted: %dx%d/%d", old.Rows(), old.Cols(), old.NNZ())
	}
	got := 0.0
	for _, v := range old.A.Vals {
		got += v
	}
	if got != sum {
		t.Fatalf("old view values drifted: sum %v vs %v", got, sum)
	}
	if cur := h.View(); cur.Rows() != 20+500 || cur.Version != old.Version+10 {
		t.Fatalf("current view = %d rows v%d, want 520 rows v%d",
			cur.Rows(), cur.Version, old.Version+10)
	}
}

// TestStreamViewAt: only published row counts (the checkpoint
// high-water marks) resolve, and each resolves to the matrix that was
// live at that point.
func TestStreamViewAt(t *testing.T) {
	const cols = 25
	h := NewStream("test-viewat", cols, Classification)
	rows := streamRows(3, 60, cols)
	var published []*Dataset
	for i := 0; i < len(rows); i += 20 {
		v, err := h.Append(rows[i : i+20])
		if err != nil {
			t.Fatal(err)
		}
		published = append(published, v)
	}

	for _, want := range published {
		got, err := h.ViewAt(want.Rows())
		if err != nil {
			t.Fatal(err)
		}
		if got.Version != want.Version {
			t.Fatalf("ViewAt(%d) version = %d, want %d", want.Rows(), got.Version, want.Version)
		}
		datasetsEqual(t, got, want)
	}
	if empty, err := h.ViewAt(0); err != nil || empty.Rows() != 0 || empty.Version != 1 {
		t.Fatalf("ViewAt(0) = %v rows, %v — want the empty version-1 view", empty, err)
	}
	if _, err := h.ViewAt(30); err == nil {
		t.Fatal("ViewAt(30) resolved a row count that was never published")
	}
	if _, err := h.ViewAt(1000); err == nil {
		t.Fatal("ViewAt(1000) resolved beyond the stream")
	}
}

// TestStreamAppendValidation: bad rows are rejected before any
// mutation, so a chunk with one bad row leaves the store untouched.
func TestStreamAppendValidation(t *testing.T) {
	h := NewStream("test-validate", 10, Classification)
	cases := map[string][]Row{
		"empty chunk":         {},
		"column out of range": {{Indices: []int32{10}, Values: []float64{1}}},
		"negative column":     {{Indices: []int32{-1}, Values: []float64{1}}},
		"length mismatch":     {{Indices: []int32{1, 2}, Values: []float64{1}}},
		"dense wrong width":   {{Dense: []float64{1, 2}}},
		"dense and sparse":    {{Dense: make([]float64, 10), Indices: []int32{1}, Values: []float64{1}}},
		"good then bad": {
			{Indices: []int32{1}, Values: []float64{1}},
			{Indices: []int32{99}, Values: []float64{1}},
		},
	}
	for name, chunk := range cases {
		if _, err := h.Append(chunk); err == nil {
			t.Errorf("%s: append accepted", name)
		}
	}
	if v := h.View(); v.Rows() != 0 || v.Version != 1 {
		t.Fatalf("rejected appends mutated the store: %d rows v%d", v.Rows(), v.Version)
	}
}

// TestTailView: the held-out tail covers the last ceil(frac*rows) rows
// (at least one), with row pointers rebased over shared storage.
func TestTailView(t *testing.T) {
	const cols = 15
	h := NewStream("test-tail", cols, Classification)
	view, err := h.Append(streamRows(5, 10, cols))
	if err != nil {
		t.Fatal(err)
	}
	tail := TailView(view, 0.2)
	if tail.Rows() != 2 || tail.Cols() != cols {
		t.Fatalf("tail shape = %dx%d, want 2x%d", tail.Rows(), tail.Cols(), cols)
	}
	if err := tail.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tail.Rows(); i++ {
		wantIdx, wantVals := view.A.Row(view.Rows() - tail.Rows() + i)
		idx, vals := tail.A.Row(i)
		if len(idx) != len(wantIdx) {
			t.Fatalf("tail row %d nnz = %d, want %d", i, len(idx), len(wantIdx))
		}
		for k := range idx {
			if idx[k] != wantIdx[k] || vals[k] != wantVals[k] {
				t.Fatalf("tail row %d entry %d mismatch", i, k)
			}
		}
		if tail.Labels[i] != view.Labels[view.Rows()-tail.Rows()+i] {
			t.Fatalf("tail label %d mismatch", i)
		}
	}
	if one := TailView(view, 0.001); one.Rows() != 1 {
		t.Fatalf("tiny fraction tail = %d rows, want the 1-row floor", one.Rows())
	}
	if all := TailView(view, 5); all.Rows() != view.Rows() {
		t.Fatalf("overlarge fraction tail = %d rows, want all %d", all.Rows(), view.Rows())
	}
}

// TestStreamConcurrentReadersWhileAppending is the aliasing-bug
// regression at the data layer: readers traverse published views while
// an appender grows the stream. Run under -race this proves views and
// appends touch disjoint memory.
func TestStreamConcurrentReadersWhileAppending(t *testing.T) {
	const cols = 50
	h := NewStream("test-race", cols, Classification)
	if _, err := h.Append(streamRows(1, 40, cols)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pinned := h.View() // an old view held across the whole run
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ds := range []*Dataset{pinned, h.View()} {
					sum := 0.0
					for i := 0; i < ds.Rows(); i++ {
						_, vals := ds.A.Row(i)
						for _, v := range vals {
							sum += v
						}
					}
					if math.IsNaN(sum) {
						t.Error("NaN sum from a published view")
						return
					}
				}
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if _, err := h.Append(streamRows(int64(i+2), 25, cols)); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if v := h.View(); v.Rows() != 40+20*25 {
		t.Fatalf("final rows = %d, want %d", v.Rows(), 40+20*25)
	}
}

// TestStreamLazyCSCSharedRaceFree pins the publication contract: an
// append publishes a view without building its column form, and the
// first concurrent CSC callers on a shared view race to build it
// exactly once. Every caller gets the same pointer, equal to a fresh
// ToCSC of the view's prefix. ViewAt rebuilds follow the same rule.
func TestStreamLazyCSCSharedRaceFree(t *testing.T) {
	const cols, chunks, readers = 24, 5, 8
	h := NewStream("lazy-csc", cols, Classification)
	for c := 0; c < chunks; c++ {
		if _, err := h.Append(streamRows(int64(70+c), 30, cols)); err != nil {
			t.Fatal(err)
		}
	}
	at, err := h.ViewAt(60)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []*Dataset{h.View(), at} {
		if v.csc != nil {
			t.Fatalf("view at %d rows holds a CSC before any column read", v.Rows())
		}
		got := make([]*mat.CSC, readers)
		var wg sync.WaitGroup
		for r := 0; r < readers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				got[r] = v.CSC()
			}(r)
		}
		wg.Wait()
		for r := 1; r < readers; r++ {
			if got[r] != got[0] {
				t.Fatalf("reader %d got a different CSC pointer: the column form was built twice", r)
			}
		}
		if want := v.A.ToCSC(); !reflect.DeepEqual(got[0], want) {
			t.Fatalf("view at %d rows: lazy CSC differs from ToCSC of its prefix", v.Rows())
		}
	}
	// Later appends leave already-published views (and their CSC) alone.
	before := h.View()
	if _, err := h.Append(streamRows(99, 10, cols)); err != nil {
		t.Fatal(err)
	}
	if h.View().csc != nil {
		t.Fatal("append built the new view's CSC eagerly")
	}
	if before.CSC().Rows != before.Rows() {
		t.Fatalf("pinned view's CSC covers %d rows, want %d", before.CSC().Rows, before.Rows())
	}
}

// TestStreamConcurrentAppends: two appenders share one stream, and so
// its sort scratch, while a reader walks View(). Every row lands
// exactly once, sorted and with its duplicates summed, and every append
// publishes a version above all earlier ones. Run under -race this
// proves the handle's lock covers the shared scratch.
func TestStreamConcurrentAppends(t *testing.T) {
	const cols, writers, chunks, chunkRows = 64, 2, 30, 8
	h := NewStream("test-concurrent-appends", cols, Regression)

	// Row id (writer*chunks + chunk)*chunkRows + k carries its id as the
	// label, and 20 entries over 16 columns so the sort runs past
	// insertion-sort sizes and sums duplicates.
	makeRow := func(id int) Row {
		r := Row{Label: float64(id)}
		for k := 0; k < 20; k++ {
			r.Indices = append(r.Indices, int32((id*7+k*5)%16))
			r.Values = append(r.Values, float64(id+k))
		}
		return r
	}

	versions := make([][]uint64, writers)
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var last *Dataset
		for {
			v := h.View()
			if last != nil && (v.Version < last.Version || v.Rows() < last.Rows()) {
				t.Errorf("view went back: v%d/%d rows after v%d/%d rows", v.Version, v.Rows(), last.Version, last.Rows())
				return
			}
			for i := 0; i < v.Rows(); i++ {
				idx, _ := v.A.Row(i)
				for k := 1; k < len(idx); k++ {
					if idx[k] <= idx[k-1] {
						t.Errorf("v%d row %d columns not strictly sorted: %v", v.Version, i, idx)
						return
					}
				}
			}
			last = v
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for c := 0; c < chunks; c++ {
				rows := make([]Row, chunkRows)
				for k := range rows {
					rows[k] = makeRow((w*chunks+c)*chunkRows + k)
				}
				v, err := h.Append(rows)
				if err != nil {
					t.Error(err)
					return
				}
				versions[w] = append(versions[w], v.Version)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-readerDone

	seen := map[uint64]bool{}
	for w, vs := range versions {
		for i, v := range vs {
			if i > 0 && v <= vs[i-1] {
				t.Fatalf("writer %d: version %d after %d", w, v, vs[i-1])
			}
			if seen[v] {
				t.Fatalf("version %d published twice", v)
			}
			seen[v] = true
		}
	}
	final := h.View()
	total := writers * chunks * chunkRows
	if final.Rows() != total || final.Version != uint64(1+writers*chunks) {
		t.Fatalf("final view %d rows v%d, want %d rows v%d", final.Rows(), final.Version, total, 1+writers*chunks)
	}
	landed := make([]bool, total)
	want := NewStream("test-concurrent-appends-serial", cols, Regression)
	for i := 0; i < final.Rows(); i++ {
		id := int(final.Labels[i])
		if id < 0 || id >= total || landed[id] {
			t.Fatalf("row %d carries id %d: out of range or landed twice", i, id)
		}
		landed[id] = true
		// Appending the same row alone must normalise it identically.
		ref, err := want.Append([]Row{makeRow(id)})
		if err != nil {
			t.Fatal(err)
		}
		gotIdx, gotVals := final.A.Row(i)
		refIdx, refVals := ref.A.Row(ref.Rows() - 1)
		if !reflect.DeepEqual(gotIdx, refIdx) || !reflect.DeepEqual(gotVals, refVals) {
			t.Fatalf("row id %d = %v/%v, appended alone %v/%v", id, gotIdx, gotVals, refIdx, refVals)
		}
	}
}
