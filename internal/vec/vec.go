// Package vec provides the vector primitives the engine is built on:
// plain float64 slices with BLAS-level-1 helpers, and Atomic, a vector
// whose components are individually atomic.
//
// Atomic implements the Hogwild! memory model the paper builds on
// (Section 2.1): writes of individual model components are atomic, but
// the vector as a whole is never locked, so concurrent readers may see
// a mix of old and new components. This is exactly the incoherent-but-
// component-atomic semantics that Niu et al. prove is sufficient for
// SGD convergence, and it keeps the concurrent executor clean under the
// Go race detector.
package vec

import (
	"math"
	"sync/atomic"
	"unsafe"
)

// Atomic is a fixed-length vector of float64 values with component-wise
// atomic loads, stores, and additions. The zero value is unusable; call
// NewAtomic.
type Atomic struct {
	bits []uint64
}

// cacheLine is the coherence granularity the allocator aligns Atomic
// storage to, so two masters never share a line and a master's first
// component never shares one with unrelated heap neighbours.
const cacheLine = 64

// NewAtomic returns an all-zero atomic vector of length n. The backing
// array is aligned to a cache-line boundary: shared masters are the
// parallel executor's hottest write targets, and an unaligned start
// would let another allocation false-share the first components' line.
func NewAtomic(n int) *Atomic {
	const wordsPerLine = cacheLine / 8
	buf := make([]uint64, n+wordsPerLine-1)
	off := 0
	if rem := uintptr(unsafe.Pointer(&buf[0])) % cacheLine; rem != 0 {
		off = int((cacheLine - rem) / 8)
	}
	return &Atomic{bits: buf[off : off+n : off+n]}
}

// Len returns the vector length.
func (a *Atomic) Len() int { return len(a.bits) }

// Load atomically reads component i.
func (a *Atomic) Load(i int) float64 {
	return math.Float64frombits(atomic.LoadUint64(&a.bits[i]))
}

// Store atomically writes component i.
func (a *Atomic) Store(i int, v float64) {
	atomic.StoreUint64(&a.bits[i], math.Float64bits(v))
}

// Add atomically adds delta to component i using a compare-and-swap
// loop, and returns the new value. Lost updates are impossible at the
// component level (though the paper's methods tolerate them anyway).
func (a *Atomic) Add(i int, delta float64) float64 {
	for {
		old := atomic.LoadUint64(&a.bits[i])
		next := math.Float64frombits(old) + delta
		if atomic.CompareAndSwapUint64(&a.bits[i], old, math.Float64bits(next)) {
			return next
		}
	}
}

// Snapshot copies the current (possibly torn across components, never
// within one) contents into dst, which must have length Len().
func (a *Atomic) Snapshot(dst []float64) {
	for i := range a.bits {
		dst[i] = a.Load(i)
	}
}

// FlushDelta is one worker's batched flush of locally accumulated
// updates, fused into a single pass: for every component it pushes the
// local delta cur[i]-base[i] to the master and refreshes cur and base
// with the master's resulting value, so the worker's next chunk trains
// on a view that includes its peers' flushed updates, in one traversal
// of three cache-resident arrays.
//
// cur and base must have length Len(). With a single writer the
// refreshed values equal cur exactly.
func (a *Atomic) FlushDelta(cur, base []float64) {
	for i := range a.bits {
		var nv float64
		if d := cur[i] - base[i]; d != 0 {
			nv = a.Add(i, d)
		} else {
			nv = a.Load(i)
		}
		cur[i], base[i] = nv, nv
	}
}

// FlushDeltaSparse is FlushDelta restricted to the given coordinate
// set: only listed components are flushed and refreshed, so a chunk of
// sparse rows pays O(coordinates touched) instead of O(dim) per flush.
// Unlisted components keep the (possibly stale) values of the last full
// refresh — acceptable under the Hogwild! memory model, and exact when
// the worker's steps never read outside the listed coordinates.
// Duplicate indices are harmless: after the first visit the component's
// local delta is zero.
func (a *Atomic) FlushDeltaSparse(cur, base []float64, idx []int32) {
	for _, j := range idx {
		if d := cur[j] - base[j]; d != 0 {
			nv := a.Add(int(j), d)
			cur[j], base[j] = nv, nv
		}
	}
}

// Dirty is a set of coordinates of an n-vector, kept in the order they
// were first marked: a worker's written coordinates since its last
// sparse flush. A byte per coordinate dedups, so marking a coordinate
// again is one load; Reset clears through the list, so it costs the
// set's size, not n.
type Dirty struct {
	seen []byte
	list []int32
}

// NewDirty returns an empty set over coordinates 0..n-1.
func NewDirty(n int) *Dirty { return &Dirty{seen: make([]byte, n)} }

// Mark adds every coordinate of idx not yet in the set.
func (d *Dirty) Mark(idx []int32) {
	for _, j := range idx {
		if d.seen[j] == 0 {
			d.seen[j] = 1
			d.list = append(d.list, j)
		}
	}
}

// List returns the marked coordinates in first-marked order. The slice
// is valid until the next Mark or Reset.
func (d *Dirty) List() []int32 { return d.list }

// Reset empties the set.
func (d *Dirty) Reset() {
	for _, j := range d.list {
		d.seen[j] = 0
	}
	d.list = d.list[:0]
}

// CopyFrom atomically stores each component of src, which must have
// length Len().
func (a *Atomic) CopyFrom(src []float64) {
	for i, v := range src {
		a.Store(i, v)
	}
}

// Dot returns the inner product of two equal-length dense vectors.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// SparseDot returns the inner product of a sparse vector (vals at
// positions idx) with a dense vector x.
func SparseDot(vals []float64, idx []int32, x []float64) float64 {
	var s float64
	for k, j := range idx {
		s += vals[k] * x[j]
	}
	return s
}

// AXPY performs y += alpha * x for equal-length dense vectors.
func AXPY(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// SparseAXPY performs y[idx[k]] += alpha * vals[k] for every nonzero.
func SparseAXPY(alpha float64, vals []float64, idx []int32, y []float64) {
	for k, j := range idx {
		y[j] += alpha * vals[k]
	}
}

// Average overwrites dst with the element-wise mean of srcs. All
// vectors must share dst's length; srcs must be non-empty.
func Average(dst []float64, srcs ...[]float64) {
	inv := 1 / float64(len(srcs))
	for i := range dst {
		var s float64
		for _, src := range srcs {
			s += src[i]
		}
		dst[i] = s * inv
	}
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Scale multiplies every component of v by alpha in place.
func Scale(alpha float64, v []float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Clone returns a copy of v.
func Clone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Clamp returns x restricted to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
