package vec

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
)

func TestAtomicLoadStore(t *testing.T) {
	a := NewAtomic(4)
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	a.Store(2, 3.5)
	if got := a.Load(2); got != 3.5 {
		t.Errorf("Load(2) = %v, want 3.5", got)
	}
	if got := a.Load(0); got != 0 {
		t.Errorf("Load(0) = %v, want 0", got)
	}
}

func TestAtomicAdd(t *testing.T) {
	a := NewAtomic(1)
	if got := a.Add(0, 1.5); got != 1.5 {
		t.Errorf("Add returned %v, want 1.5", got)
	}
	if got := a.Add(0, -0.5); got != 1.0 {
		t.Errorf("Add returned %v, want 1.0", got)
	}
}

func TestAtomicAddConcurrentNoLostUpdates(t *testing.T) {
	a := NewAtomic(1)
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				a.Add(0, 1)
			}
		}()
	}
	wg.Wait()
	if got := a.Load(0); got != workers*per {
		t.Errorf("concurrent Add lost updates: %v, want %d", got, workers*per)
	}
}

func TestAtomicSnapshotCopyFrom(t *testing.T) {
	a := NewAtomic(3)
	a.CopyFrom([]float64{1, 2, 3})
	dst := make([]float64, 3)
	a.Snapshot(dst)
	for i, want := range []float64{1, 2, 3} {
		if dst[i] != want {
			t.Errorf("snapshot[%d] = %v, want %v", i, dst[i], want)
		}
	}
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Errorf("empty Dot = %v, want 0", got)
	}
}

func TestSparseDot(t *testing.T) {
	x := []float64{10, 20, 30, 40}
	got := SparseDot([]float64{2, 3}, []int32{1, 3}, x)
	if got != 2*20+3*40 {
		t.Errorf("SparseDot = %v, want 160", got)
	}
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 1}
	AXPY(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Errorf("AXPY result = %v", y)
	}
}

func TestSparseAXPY(t *testing.T) {
	y := []float64{0, 0, 0}
	SparseAXPY(-1, []float64{5}, []int32{2}, y)
	if y[2] != -5 || y[0] != 0 {
		t.Errorf("SparseAXPY result = %v", y)
	}
}

func TestAverage(t *testing.T) {
	dst := make([]float64, 2)
	Average(dst, []float64{1, 2}, []float64{3, 6})
	if dst[0] != 2 || dst[1] != 4 {
		t.Errorf("Average = %v, want [2 4]", dst)
	}
}

func TestNorm2(t *testing.T) {
	if got := Norm2([]float64{3, 4}); math.Abs(got-5) > 1e-12 {
		t.Errorf("Norm2 = %v, want 5", got)
	}
}

func TestScaleClone(t *testing.T) {
	v := []float64{1, 2}
	Scale(3, v)
	if v[0] != 3 || v[1] != 6 {
		t.Errorf("Scale = %v", v)
	}
	c := Clone(v)
	c[0] = 0
	if v[0] != 3 {
		t.Error("Clone aliases source")
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{-1, 0, 1, 0}, {2, 0, 1, 1}, {0.5, 0, 1, 0.5},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

// Property: Atomic round-trips arbitrary float64 values exactly,
// including negatives, tiny and huge magnitudes.
func TestAtomicRoundTripProperty(t *testing.T) {
	f := func(v float64) bool {
		a := NewAtomic(1)
		a.Store(0, v)
		got := a.Load(0)
		return got == v || (math.IsNaN(v) && math.IsNaN(got))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Dot is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(a, b [8]float64) bool {
		x, y := a[:], b[:]
		d1, d2 := Dot(x, y), Dot(y, x)
		return d1 == d2 || math.IsNaN(d1) == math.IsNaN(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Average of identical vectors is the vector itself.
func TestAverageIdentityProperty(t *testing.T) {
	f := func(a [4]float64) bool {
		if anyNaN(a[:]) {
			return true
		}
		dst := make([]float64, 4)
		Average(dst, a[:], a[:], a[:])
		for i := range dst {
			if math.Abs(dst[i]-a[i]) > 1e-9*math.Max(1, math.Abs(a[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func anyNaN(v []float64) bool {
	for _, x := range v {
		// Skip values whose triple sum would overflow, as well as
		// NaN/Inf inputs: Average is only used on finite model values.
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > math.MaxFloat64/4 {
			return true
		}
	}
	return false
}

// TestAtomicFlushDelta: a flush adds each local delta into the master
// and refreshes the local copy and its baseline from the master, which
// also carries a peer's update; the sparse flush does so only at the
// listed coordinates.
func TestAtomicFlushDelta(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		a := NewAtomic(4)
		a.CopyFrom([]float64{1, 2, 3, 4})
		base := []float64{1, 2, 3, 4}
		cur := []float64{1, 2.5, 3, 3}
		a.Add(0, 10) // a peer's flush
		want := []float64{11, 2.5, 3, 3}
		if sparse {
			a.FlushDeltaSparse(cur, base, []int32{1, 3, 1})
			want[0] = 1 // unlisted: keeps the stale local value
		} else {
			a.FlushDelta(cur, base)
		}
		master := make([]float64, 4)
		a.Snapshot(master)
		for i, w := range []float64{11, 2.5, 3, 3} {
			if master[i] != w {
				t.Errorf("sparse %v: master[%d] = %v, want %v", sparse, i, master[i], w)
			}
		}
		for i := range want {
			if cur[i] != want[i] || base[i] != want[i] {
				t.Errorf("sparse %v: cur, base [%d] = %v, %v, want %v", sparse, i, cur[i], base[i], want[i])
			}
		}
	}
}

// TestDirty: marks dedup and keep first-marked order, and Reset empties
// the set so every coordinate can be marked again.
func TestDirty(t *testing.T) {
	d := NewDirty(8)
	d.Mark([]int32{5, 2, 5})
	d.Mark([]int32{2, 7})
	if got := d.List(); len(got) != 3 || got[0] != 5 || got[1] != 2 || got[2] != 7 {
		t.Fatalf("List = %v, want [5 2 7]", got)
	}
	d.Reset()
	if got := d.List(); len(got) != 0 {
		t.Fatalf("List after Reset = %v, want empty", got)
	}
	d.Mark([]int32{7, 5})
	if got := d.List(); len(got) != 2 || got[0] != 7 || got[1] != 5 {
		t.Fatalf("List after Reset and Mark = %v, want [7 5]", got)
	}
}
