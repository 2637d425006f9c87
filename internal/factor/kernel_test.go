package factor

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"dimmwitted/internal/core"
	"dimmwitted/internal/model"
)

// skipOffAMD64 skips bit-exact pins where the compiler may fuse
// multiply-adds and move the low bits.
func skipOffAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact values pinned on amd64 only (GOARCH=%s may fuse multiply-adds)", runtime.GOARCH)
	}
}

// edgeGraph is a 12-variable graph holding every case the sampler's
// flat index distinguishes: each Kind plus an unknown one, a variable
// repeated inside a factor ({3,3,4} and {5,3,5} Imply, {2,2} Equal),
// arity-1 factors of every kind, and variables no factor touches —
// among them the last one, so an index that reads one slot past a
// variable's run would run off the end.
func edgeGraph(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(12, []Factor{
		{Vars: []int32{0, 1}, Weight: 0.7, Kind: Equal},
		{Vars: []int32{0, 1, 2}, Weight: -1.3, Kind: And},
		{Vars: []int32{1, 2, 6}, Weight: 0.45, Kind: Or},
		{Vars: []int32{0, 6, 7}, Weight: 1.1, Kind: Imply},
		{Vars: []int32{3, 3, 4}, Weight: -0.6, Kind: Imply},
		{Vars: []int32{5, 3, 5}, Weight: 0.9, Kind: Imply},
		{Vars: []int32{2, 2}, Weight: 0.35, Kind: Equal},
		{Vars: []int32{1, 4, 7}, Weight: 2.5, Kind: Kind(9)},
		{Vars: []int32{8}, Weight: 0.25, Kind: Equal},
		{Vars: []int32{8}, Weight: -0.8, Kind: And},
		{Vars: []int32{6}, Weight: 0.6, Kind: Or},
		{Vars: []int32{7}, Weight: -1.7, Kind: Imply},
		{Vars: []int32{8}, Weight: 1.3, Kind: Kind(7)},
		{Vars: []int32{4, 6, 8, 0}, Weight: 0.15, Kind: Equal},
		{Vars: []int32{7, 5, 2, 0}, Weight: -0.4, Kind: Imply},
		{Vars: []int32{6, 8}, Weight: 1.9, Kind: Or},
		{Vars: []int32{4, 5}, Weight: -2.2, Kind: And},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mixedGraph is a generated graph re-kinded round-robin over every
// Kind plus an unknown one, with repeated-member factors appended.
func mixedGraph(t *testing.T) *Graph {
	t.Helper()
	base := Generate(GenerateConfig{Vars: 300, Factors: 700, MaxArity: 4, WeightStd: 0.9, Seed: 17})
	factors := make([]Factor, 0, len(base.Factors)+3)
	for i, f := range base.Factors {
		factors = append(factors, Factor{Vars: f.Vars, Weight: f.Weight, Kind: Kind(i % 5)})
	}
	factors = append(factors,
		Factor{Vars: []int32{3, 3, 4}, Weight: 0.8, Kind: Imply},
		Factor{Vars: []int32{5, 3, 5}, Weight: -0.5, Kind: Imply},
		Factor{Vars: []int32{2, 2}, Weight: 0.6, Kind: Equal},
	)
	g, err := NewGraph(base.NumVars, factors)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// sweepPin is one pinned sampler trajectory: per-sweep loss bits, an
// FNV-1a hash of the final pooled marginals, and the cumulative traffic
// stats and simulated time.
type sweepPin struct {
	losses []uint64
	model  uint64
	stats  model.Stats
	simNs  int64
}

// floatsHash is FNV-1a over the little-endian bits of x.
func floatsHash(x []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// pinnedSweeps were generated at commit 62c8d24, before the flat
// sampler index, the single-pass kernel and the allocation-free sweep
// order existed. All three must leave every draw, every firing and
// every floating-point sum unchanged, so these runs reproduce the bits.
var pinnedSweeps = map[string]sweepPin{
	"generated/sim-pernode": {
		losses: []uint64{0x3fd7ddcf4175b113, 0x3fe0a3a70545933f, 0x3fe1e4544ad8d90e, 0x3fe2bcf3e5c39141, 0x3fe319edc082e4ad, 0x3fe353ea48ae1f55},
		model:  0x81ab6044a08912e3,
		stats:  model.Stats{DataWords: 84600, ModelReads: 84600, ModelWrites: 6000, AuxReads: 0, AuxWrites: 0, Flops: 217200},
		simNs:  14478,
	},
	"generated/sim-permachine": {
		losses: []uint64{0x0, 0x3fd246e33c98f049, 0x3fd8d979b147db97, 0x3fdc8ed58de1d79a, 0x3fdeaabd7f61fa79, 0x3fe0101ba4b20c1e},
		model:  0xdf6dfb51b7fb3567,
		stats:  model.Stats{DataWords: 42300, ModelReads: 42300, ModelWrites: 3000, AuxReads: 0, AuxWrites: 0, Flops: 108600},
		simNs:  13561,
	},
	"generated/parallel-1": {
		losses: []uint64{0x0, 0x3fd36e2841aa0be0, 0x3fda27312d9221dc, 0x3fddaca490499c97, 0x3fdffd6cd250f2cf, 0x3fe0ad5f7578173b},
		model:  0xcf87dddb81dd8f7d,
		stats:  model.Stats{DataWords: 42300, ModelReads: 42300, ModelWrites: 3000, AuxReads: 0, AuxWrites: 0, Flops: 108600},
		simNs:  0,
	},
	"mixed/sim-pernode": {
		losses: []uint64{0x3fd48ddb18a705ee, 0x3fe0a903c76bdd28, 0x3fe2468d72ad26b0, 0x3fe2d72086a2c209, 0x3fe330a920beb039, 0x3fe384d8c08c4a40},
		model:  0xa703c97d2d338584,
		stats:  model.Stats{DataWords: 79800, ModelReads: 79800, ModelWrites: 3600, AuxReads: 0, AuxWrites: 0, Flops: 188400},
		simNs:  13034,
	},
	"mixed/sim-permachine": {
		losses: []uint64{0x0, 0x3fd4d990e5705536, 0x3fda9d6229971ac3, 0x3fddf281be502452, 0x3fdfdbb7080fc3c3, 0x3fe0c064f825e2f1},
		model:  0xaf42d0ebfd43838a,
		stats:  model.Stats{DataWords: 39900, ModelReads: 39900, ModelWrites: 1800, AuxReads: 0, AuxWrites: 0, Flops: 94200},
		simNs:  12518,
	},
	"mixed/parallel-1": {
		losses: []uint64{0x0, 0x3fd2560798c13354, 0x3fda7a9f0ca4b371, 0x3fdf29e2d8c27e91, 0x3fe0b70f82a282c2, 0x3fe15882bdd0874f},
		model:  0xa736cf4951af088f,
		stats:  model.Stats{DataWords: 39900, ModelReads: 39900, ModelWrites: 1800, AuxReads: 0, AuxWrites: 0, Flops: 94200},
		simNs:  0,
	},
}

// TestGibbsTrajectoriesPinned runs 6 sweeps of each plan on a generated
// and a mixed-kind graph and compares against pinnedSweeps.
func TestGibbsTrajectoriesPinned(t *testing.T) {
	skipOffAMD64(t)
	graphs := []struct {
		name string
		g    *Graph
	}{
		{"generated", Generate(GenerateConfig{Vars: 500, Factors: 1100, MaxArity: 3, WeightStd: 0.8, Seed: 21})},
		{"mixed", mixedGraph(t)},
	}
	plans := []struct {
		name string
		plan core.Plan
	}{
		{"sim-pernode", core.Plan{ModelRep: core.PerNode, DataRep: core.FullReplication, Seed: 3}},
		{"sim-permachine", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Seed: 4}},
		{"parallel-1", core.Plan{ModelRep: core.PerMachine, DataRep: core.Sharding, Executor: core.ExecParallel, Workers: 1, Seed: 5}},
	}
	const sweeps = 6
	for _, gc := range graphs {
		for _, pc := range plans {
			name := gc.name + "/" + pc.name
			eng, err := core.NewWorkload(NewWorkload(gc.g), pc.plan)
			if err != nil {
				t.Fatal(err)
			}
			var got sweepPin
			for i := 0; i < sweeps; i++ {
				got.losses = append(got.losses, math.Float64bits(eng.RunEpoch().Loss))
			}
			got.model = floatsHash(eng.Model())
			got.stats = eng.Stats()
			got.simNs = int64(eng.SimTime())
			eng.Close()

			want, ok := pinnedSweeps[name]
			if !ok {
				t.Errorf("%s: no pin; got %#v", name, got)
				continue
			}
			for i := range want.losses {
				if got.losses[i] != want.losses[i] {
					t.Errorf("%s sweep %d: loss bits %#x, pinned %#x", name, i+1, got.losses[i], want.losses[i])
				}
			}
			if got.model != want.model {
				t.Errorf("%s: marginals hash %#x, pinned %#x", name, got.model, want.model)
			}
			if got.stats != want.stats {
				t.Errorf("%s: stats %+v, pinned %+v", name, got.stats, want.stats)
			}
			if got.simNs != want.simNs {
				t.Errorf("%s: simulated time %dns, pinned %dns", name, got.simNs, want.simNs)
			}
		}
	}
}

// graphHash is FNV-1a over a graph's variable count and every factor's
// members, weight bits and kind, in order.
func graphHash(g *Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(uint64(g.NumVars))
	for _, f := range g.Factors {
		put(uint64(len(f.Vars)))
		for _, v := range f.Vars {
			put(uint64(v))
		}
		put(math.Float64bits(f.Weight))
		put(uint64(f.Kind))
	}
	return h.Sum64()
}

// pinnedGenerate holds Generate's output hashes, generated at commit
// 62c8d24 while Generate still deduplicated members through a map and
// allocated every factor's members separately. The slab-backed linear
// dedup must draw and emit exactly the same graphs.
var pinnedGenerate = map[GenerateConfig]uint64{
	{Vars: 4000, Factors: 9000, MaxArity: 3, WeightStd: 0.8, Seed: 42}:   0xa586b50343fd5cff,
	{Vars: 20000, Factors: 45000, MaxArity: 3, WeightStd: 0.8, Seed: 43}: 0x3f285984703815c1,
	{Vars: 8000, Factors: 18000, MaxArity: 3, WeightStd: 0.8, Seed: 1}:   0xa7bc200a86de7bed,
	{Vars: 50, Factors: 200, MaxArity: 6, WeightStd: 1, Seed: 7}:         0xbcab46831ee45de5,
	{Vars: 30, Factors: 10, MaxArity: 2, WeightStd: 1, Seed: 1}:          0x439b525ad1f36d74,
}

func TestGeneratePinned(t *testing.T) {
	skipOffAMD64(t)
	for _, cfg := range []GenerateConfig{
		{Vars: 4000, Factors: 9000, MaxArity: 3, WeightStd: 0.8, Seed: 42},
		{Vars: 20000, Factors: 45000, MaxArity: 3, WeightStd: 0.8, Seed: 43},
		{Vars: 8000, Factors: 18000, MaxArity: 3, WeightStd: 0.8, Seed: 1},
		{Vars: 50, Factors: 200, MaxArity: 6, WeightStd: 1, Seed: 7},
		{Vars: 30, Factors: 10, MaxArity: 2, WeightStd: 1, Seed: 1},
	} {
		got := graphHash(Generate(cfg))
		if want, ok := pinnedGenerate[cfg]; !ok || got != want {
			t.Errorf("Generate(%+v) hash %#x, pinned %#x (present %v)", cfg, got, want, ok)
		}
	}
}

// TestGenerateVarsDoNotAlias: factors' member slices share one slab,
// so an append to one factor's Vars must reallocate rather than
// overwrite its neighbour's members.
func TestGenerateVarsDoNotAlias(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 100, Factors: 50, MaxArity: 3, WeightStd: 1, Seed: 2})
	next := append([]int32(nil), g.Factors[1].Vars...)
	_ = append(g.Factors[0].Vars, -1)
	for i, v := range g.Factors[1].Vars {
		if v != next[i] {
			t.Fatalf("append to factor 0 overwrote factor 1's members: %v, was %v", g.Factors[1].Vars, next)
		}
	}
}

// TestEpochOrderMatchesPerm: a chain's reusable sweep order makes
// exactly rand.Perm's draws and allocates nothing once warm.
func TestEpochOrderMatchesPerm(t *testing.T) {
	g := Generate(GenerateConfig{Vars: 257, Factors: 400, MaxArity: 3, WeightStd: 1, Seed: 9})
	w := NewWorkload(g)
	w.chains = []*chain{{rng: rand.New(rand.NewSource(31))}}
	ref := rand.New(rand.NewSource(31))
	for sweep := 0; sweep < 4; sweep++ {
		want := ref.Perm(g.NumVars)
		got := w.EpochOrder(0)
		if len(got) != len(want) {
			t.Fatalf("sweep %d: order has %d entries, want %d", sweep, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("sweep %d: order[%d] = %d, rand.Perm %d", sweep, i, got[i], want[i])
			}
		}
	}
	if a := testing.AllocsPerRun(20, func() { w.EpochOrder(0) }); a != 0 {
		t.Errorf("EpochOrder allocates %v times per sweep, want 0", a)
	}
}
