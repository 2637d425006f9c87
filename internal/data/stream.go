package data

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"dimmwitted/internal/mat"
)

// Streaming ingestion: a Handle owns a growable CSR store and publishes
// epoch-stable immutable views of it. Appends grow the backing arrays
// in place under the handle's lock; each published view is a *Dataset
// whose slices are capacity-capped prefixes of those arrays. Because a
// published prefix is never rewritten — appends either write beyond the
// published length or reallocate (leaving the old backing array intact
// for old views) — a running engine holding a view never observes a
// torn matrix, and the race detector agrees: readers and the appender
// touch disjoint elements.

// Row is one ingested example. Exactly one of the sparse pair
// (Indices/Values) or Dense must be set; Label carries the supervision
// for classification/regression tasks.
type Row struct {
	Indices []int32
	Values  []float64
	Dense   []float64
	Label   float64
}

// mark records one published view: after `rows` rows the store was at
// `version`. Checkpoint high-water marks always name a published view,
// so resume can rebuild the exact matrix the snapshot trained on.
type mark struct {
	rows    int
	version uint64
}

// Handle is the mutable side of a dataset: registry datasets get a
// frozen handle (appends rejected, version pinned at 1), streams get a
// growable one. View never blocks on appenders.
type Handle struct {
	name   string
	task   Task
	cols   int
	frozen bool

	mu     sync.Mutex // serialises appends and prefix rebuilds
	rowPtr []int64
	colIdx []int32
	vals   []float64
	labels []float64
	marks  []mark
	// ents is appendRowLocked's sort scratch, reused by every sparse
	// row; h.mu serialises its users.
	ents []colVal

	view atomic.Pointer[Dataset]
}

// frozenHandle wraps an already-materialised registry dataset.
func frozenHandle(ds *Dataset) *Handle {
	h := &Handle{
		name:   ds.Name,
		task:   ds.Task,
		cols:   ds.Cols(),
		frozen: true,
		rowPtr: ds.A.RowPtr,
		colIdx: ds.A.ColIdx,
		vals:   ds.A.Vals,
		labels: ds.Labels,
		marks:  []mark{{rows: ds.Rows(), version: ds.Version}},
	}
	h.view.Store(ds)
	return h
}

// NewStream creates an empty growable handle. Version 1 is the empty
// view; the first append publishes version 2. A handle belongs to no
// namespace: the serving catalog (internal/serve) names one server's
// streams, and benchmark harnesses build standalone ones.
func NewStream(name string, cols int, task Task) *Handle {
	h := &Handle{
		name:   name,
		task:   task,
		cols:   cols,
		rowPtr: []int64{0},
	}
	h.publishLocked(1)
	return h
}

// Name returns the dataset name this handle serves.
func (h *Handle) Name() string { return h.name }

// Task returns the task the handle's rows are validated against.
func (h *Handle) Task() Task { return h.task }

// Cols returns the fixed model dimension of the stream.
func (h *Handle) Cols() int { return h.cols }

// Frozen reports whether the handle rejects appends (registry
// datasets).
func (h *Handle) Frozen() bool { return h.frozen }

// View returns the current published view. The returned dataset is
// immutable and safe to share across concurrent engines.
func (h *Handle) View() *Dataset { return h.view.Load() }

// Version returns the current published view's version.
func (h *Handle) Version() uint64 { return h.View().Version }

// Append validates and ingests a chunk of rows, then publishes a new
// view covering everything ingested so far. It returns the new view.
// Validation happens before any mutation, so a rejected chunk leaves
// the store untouched.
func (h *Handle) Append(rows []Row) (*Dataset, error) {
	if h.frozen {
		return nil, fmt.Errorf("data: dataset %q is a frozen registry dataset; appends need a stream", h.name)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("data: append to %q with no rows", h.name)
	}
	for i := range rows {
		if err := h.validateRow(&rows[i]); err != nil {
			return nil, fmt.Errorf("data: append to %q row %d: %w", h.name, i, err)
		}
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range rows {
		h.appendRowLocked(&rows[i])
	}
	ds := h.publishLocked(h.View().Version + 1)
	return ds, nil
}

// validateRow checks one row against the stream's shape without
// touching the store.
func (h *Handle) validateRow(r *Row) error {
	if r.Dense != nil {
		if len(r.Indices) != 0 || len(r.Values) != 0 {
			return fmt.Errorf("both dense and sparse forms set")
		}
		if len(r.Dense) != h.cols {
			return fmt.Errorf("dense row has %d values, want %d", len(r.Dense), h.cols)
		}
		return nil
	}
	if len(r.Indices) != len(r.Values) {
		return fmt.Errorf("%d indices but %d values", len(r.Indices), len(r.Values))
	}
	for _, c := range r.Indices {
		if c < 0 || int(c) >= h.cols {
			return fmt.Errorf("column index %d out of range [0,%d)", c, h.cols)
		}
	}
	return nil
}

// colVal is one sparse entry of a row being appended.
type colVal struct {
	c int32
	v float64
}

// appendRowLocked writes one validated row into the growable store.
// Sparse entries are sorted by column (CSR invariant); duplicate
// columns within a row are summed in request order, which the stable
// sort keeps.
func (h *Handle) appendRowLocked(r *Row) {
	start := len(h.colIdx)
	if r.Dense != nil {
		for c, v := range r.Dense {
			if v != 0 {
				h.colIdx = append(h.colIdx, int32(c))
				h.vals = append(h.vals, v)
			}
		}
	} else {
		ents := h.ents[:0]
		for i, c := range r.Indices {
			ents = append(ents, colVal{c, r.Values[i]})
		}
		slices.SortStableFunc(ents, func(a, b colVal) int { return cmp.Compare(a.c, b.c) })
		h.ents = ents
		for _, e := range ents {
			if n := len(h.colIdx); n > start && h.colIdx[n-1] == e.c {
				h.vals[n-1] += e.v
				continue
			}
			h.colIdx = append(h.colIdx, e.c)
			h.vals = append(h.vals, e.v)
		}
	}
	h.rowPtr = append(h.rowPtr, int64(len(h.colIdx)))
	h.labels = append(h.labels, r.Label)
}

// publishLocked builds and atomically installs the view over the
// current prefix. The view's slices are capacity-capped so no append
// through the view can ever reach the shared backing arrays; the
// handle's own appends write only beyond the published length.
func (h *Handle) publishLocked(version uint64) *Dataset {
	n := len(h.rowPtr) - 1
	ds := h.prefixLocked(n, version)
	h.marks = append(h.marks, mark{rows: n, version: version})
	h.view.Store(ds)
	return ds
}

// prefixLocked builds the immutable view over the first n rows in O(1):
// it slices the store and copies nothing. The view's column form is
// built lazily, on its first CSC call, so an append costs O(chunk).
func (h *Handle) prefixLocked(n int, version uint64) *Dataset {
	nnz := h.rowPtr[n]
	ds := &Dataset{
		Name: h.name,
		Task: h.task,
		A: &mat.CSR{
			Rows:   n,
			Cols:   h.cols,
			RowPtr: h.rowPtr[: n+1 : n+1],
			ColIdx: h.colIdx[:nnz:nnz],
			Vals:   h.vals[:nnz:nnz],
		},
		Labels:  h.labels[:n:n],
		Version: version,
	}
	return ds
}

// ViewAt rebuilds the published view that covered exactly `rows` rows.
// Only row counts that were actually published (append-chunk
// boundaries — the values checkpoints record as ingest high-water
// marks) are valid; anything else errors, because no epoch ever
// trained on such a matrix.
func (h *Handle) ViewAt(rows int) (*Dataset, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.Search(len(h.marks), func(i int) bool { return h.marks[i].rows >= rows })
	if i == len(h.marks) || h.marks[i].rows != rows {
		return nil, fmt.Errorf("data: %q has no published view at %d rows", h.name, rows)
	}
	// Later marks can republish the same row count only with the same
	// prefix (the store is append-only), so the first match is exact.
	return h.prefixLocked(rows, h.marks[i].version), nil
}

// TailView carves the held-out tail of a view for shadow evaluation:
// the last ceil(frac*rows) rows, at least one. The tail shares the
// view's column and value storage (rebased row pointers), so building
// it is O(tail rows).
func TailView(ds *Dataset, frac float64) *Dataset {
	rows := ds.Rows()
	if rows == 0 {
		return ds
	}
	k := int(frac * float64(rows))
	if k < 1 {
		k = 1
	}
	if k > rows {
		k = rows
	}
	start := rows - k
	base := ds.A.RowPtr[start]
	ptr := make([]int64, k+1)
	for i := 0; i <= k; i++ {
		ptr[i] = ds.A.RowPtr[start+i] - base
	}
	tail := &Dataset{
		Name: ds.Name + "#tail",
		Task: ds.Task,
		A: &mat.CSR{
			Rows:   k,
			Cols:   ds.Cols(),
			RowPtr: ptr,
			ColIdx: ds.A.ColIdx[base:ds.A.RowPtr[rows]],
			Vals:   ds.A.Vals[base:ds.A.RowPtr[rows]],
		},
		Version: ds.Version,
	}
	if ds.Labels != nil {
		tail.Labels = ds.Labels[start:rows]
	}
	if ds.Anchors != nil {
		tail.Anchors = ds.Anchors
	}
	return tail
}
