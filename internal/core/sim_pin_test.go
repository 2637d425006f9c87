package core

import (
	"math"
	"runtime"
	"testing"

	"dimmwitted/internal/data"
	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// simEpochBits is one pinned simulated epoch: the loss bits, an FNV-1a
// hash of the combined model, the simulated duration and the PMU-style
// counters the epoch charged.
type simEpochBits struct {
	loss    uint64
	model   uint64
	simTime int64
	ctr     numa.Counters
}

// pinnedSimTrajectories were generated at commit fc32987, before the
// simulated executor cached each worker's step costs and reused its
// averaging buffers. Every step, every charge to the simulated machine
// and every averaging round must stay where it was, so the bits, times
// and counters below are exact.
var pinnedSimTrajectories = map[string][]simEpochBits{
	"svm": {
		{0x3fd88f7828136fa5, 0x6a336b8c795a8f48, 5007, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 29472, ReadWords: 109782}},
		{0x3fd4c3fab231af81, 0xd7cac4fdb026a4fa, 4631, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 24699, ReadWords: 109782}},
		{0x3fd0fa21ac4313f9, 0xcf46901a0017b21e, 4512, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 23588, ReadWords: 109782}},
		{0x3fd041f6890e0636, 0x1f074579acc275b2, 4504, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 22791, ReadWords: 109782}},
	},
	"lr": {
		{0x3fd5bc8dbe4f129f, 0x284c34aa2fd7fec, 7417, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 51898, ReadWords: 109782}},
		{0x3fd31e5cffbb5493, 0x33da3d87c08e1a48, 7495, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 51898, ReadWords: 109782}},
		{0x3fd1d6daeb9bb296, 0xc8f8c7b0413d39d3, 7494, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 51898, ReadWords: 109782}},
		{0x3fd1572bc67aa0c6, 0x88d50807db4526cc, 7706, numa.Counters{LocalDRAM: 57884, RemoteDRAM: 0, LocalLLC: 45598, RemoteLLC: 6300, QPIWords: 12600, Invalidations: 0, WriteWords: 51898, ReadWords: 109782}},
	},
	"ls-col": {
		{0x3fd67c7ce913fe8f, 0x12b4409988070aba, 14428, numa.Counters{LocalDRAM: 71886, RemoteDRAM: 0, LocalLLC: 24598, RemoteLLC: 200, QPIWords: 400, Invalidations: 0, WriteWords: 27798, ReadWords: 96684}},
		{0x3fb6f110b35083ed, 0xcaa9f308cf8229eb, 17241, numa.Counters{LocalDRAM: 71886, RemoteDRAM: 0, LocalLLC: 24598, RemoteLLC: 200, QPIWords: 400, Invalidations: 0, WriteWords: 27798, ReadWords: 96684}},
		{0x3fa05ba2b66f239a, 0x48266a4c001c54c3, 14328, numa.Counters{LocalDRAM: 71886, RemoteDRAM: 0, LocalLLC: 24598, RemoteLLC: 200, QPIWords: 400, Invalidations: 0, WriteWords: 27798, ReadWords: 96684}},
		{0x3f8d302dec4178fd, 0xa3be544f9d9b246e, 13537, numa.Counters{LocalDRAM: 71886, RemoteDRAM: 0, LocalLLC: 24598, RemoteLLC: 200, QPIWords: 400, Invalidations: 0, WriteWords: 27798, ReadWords: 96684}},
	},
}

// TestSimTrajectoryPinned pins the simulated executor on Local2 PerNode
// plans: svm and lr on row access with SyncRounds 0, so the mid-epoch
// averaging worker runs after every interleaver round, and ls on column
// access, which covers the aux region and the end-of-epoch aux refresh.
// A step charged to another replica's region, a skipped or doubled
// averaging round, or a changed combine shows up in the counters or
// the bits. Skipped off amd64, where the compiler may fuse
// multiply-adds and move the low bits.
func TestSimTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("bit-exact trajectory pinned on amd64 only (GOARCH=%s may fuse multiply-adds)", runtime.GOARCH)
	}
	cls := data.GenerateSparse(data.SparseConfig{
		Name: "pinned-sim", Rows: 2000, Cols: 300, NNZPerRow: 10, Noise: 0.05, Seed: 17,
	})
	reg := data.GenerateSparse(data.SparseConfig{
		Name: "pinned-sim-reg", Rows: 1500, Cols: 200, NNZPerRow: 8, Noise: 0.1, Regression: true, Seed: 19,
	})
	cases := []struct {
		name   string
		spec   model.Spec
		ds     *data.Dataset
		access model.Access
	}{
		{"svm", model.NewSVM(), cls, model.RowWise},
		{"lr", model.NewLR(), cls, model.RowWise},
		{"ls-col", model.NewLS(), reg, model.ColWise},
	}
	const epochs = 4
	for _, c := range cases {
		e := mustEngine(t, c.spec, c.ds, Plan{
			Machine: numa.Local2, Access: c.access, ModelRep: PerNode,
			DataRep: FullReplication, SyncRounds: 0, Seed: 7,
		})
		if e.Replicas() != 2 {
			t.Fatalf("%s: %d replicas, want 2", c.name, e.Replicas())
		}
		var got []simEpochBits
		for i := 0; i < epochs; i++ {
			er := e.RunEpoch()
			got = append(got, simEpochBits{
				loss:    math.Float64bits(er.Loss),
				model:   modelHash(e.Model()),
				simTime: int64(er.SimTime),
				ctr:     er.Counters,
			})
		}
		want, ok := pinnedSimTrajectories[c.name]
		if !ok {
			t.Errorf("%s: no pinned trajectory; got %#v", c.name, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s epoch %d:\n got    %+v\n pinned %+v", c.name, i+1, got[i], want[i])
			}
		}
	}
}
