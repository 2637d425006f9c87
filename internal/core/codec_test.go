package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"
	"time"

	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// testSnapshot builds a fully populated snapshot exercising every
// codec field: non-default plan knobs, worker generators, replica
// blobs, and awkward float values.
func testSnapshot() Snapshot {
	return Snapshot{
		Workload: WorkloadGibbs,
		Spec:     "gibbs",
		Dataset:  "cycle5",
		Epoch:    17,
		Loss:     0.6931471805599453,
		SimTime:  1234567 * time.Nanosecond,
		WallTime: 7654321 * time.Nanosecond,
		Step:     0.95,
		Plan: Plan{
			Access:                model.ColToRow,
			ModelRep:              PerNode,
			DataRep:               FullReplication,
			Executor:              ExecParallel,
			Placement:             PlacementOS,
			DenseStorage:          true,
			Machine:               numa.Local4,
			Workers:               7,
			Step:                  1,
			StepDecay:             1,
			ChunkSize:             1,
			SyncRounds:            -1,
			ImportanceFraction:    0.1,
			Seed:                  42,
			StepOverheadCycles:    3.5,
			ElementOverheadCycles: 0.25,
			EpochOverheadCycles:   1e6,
			ComputeScale:          3,
			FixedOrder:            true,
		},
		DataRows:    4321,
		DataVersion: 6,
		X:           []float64{0, 1, 0.5, math.Inf(1), math.SmallestNonzeroFloat64, -0},
		EngineRNG:   RNGState{Seed: 42, Draws: 99},
		WorkerRNG:   []RNGState{{Seed: 43, Draws: 1}, {Seed: 44, Draws: 0}},
		Priv:        [][]byte{{1, 2, 3}, {}, []byte("chain")},
	}
}

// snapshotsEqual compares every field bit-for-bit (NaN-safe).
func snapshotsEqual(t *testing.T, a, b Snapshot) {
	t.Helper()
	if a.Workload != b.Workload || a.Spec != b.Spec || a.Dataset != b.Dataset ||
		a.Epoch != b.Epoch || a.SimTime != b.SimTime || a.WallTime != b.WallTime ||
		a.DataRows != b.DataRows || a.DataVersion != b.DataVersion {
		t.Fatalf("metadata changed: %+v vs %+v", a, b)
	}
	if math.Float64bits(a.Loss) != math.Float64bits(b.Loss) || math.Float64bits(a.Step) != math.Float64bits(b.Step) {
		t.Fatalf("loss/step changed: %v/%v vs %v/%v", a.Loss, a.Step, b.Loss, b.Step)
	}
	if a.Plan != b.Plan {
		t.Fatalf("plan changed:\n%+v\n%+v", a.Plan, b.Plan)
	}
	if a.EngineRNG != b.EngineRNG {
		t.Fatalf("engine rng changed: %+v vs %+v", a.EngineRNG, b.EngineRNG)
	}
	if len(a.WorkerRNG) != len(b.WorkerRNG) {
		t.Fatalf("worker rng count changed: %d vs %d", len(a.WorkerRNG), len(b.WorkerRNG))
	}
	for i := range a.WorkerRNG {
		if a.WorkerRNG[i] != b.WorkerRNG[i] {
			t.Fatalf("worker rng %d changed", i)
		}
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("X length changed: %d vs %d", len(a.X), len(b.X))
	}
	for i := range a.X {
		if math.Float64bits(a.X[i]) != math.Float64bits(b.X[i]) {
			t.Fatalf("X[%d] changed: %v vs %v", i, a.X[i], b.X[i])
		}
	}
	if len(a.Priv) != len(b.Priv) {
		t.Fatalf("Priv count changed: %d vs %d", len(a.Priv), len(b.Priv))
	}
	for i := range a.Priv {
		if !bytes.Equal(a.Priv[i], b.Priv[i]) {
			t.Fatalf("Priv[%d] changed", i)
		}
	}
}

func TestSnapshotCodecRoundTrip(t *testing.T) {
	s := testSnapshot()
	back, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	snapshotsEqual(t, s, back)
}

func TestSnapshotCodecRoundTripMinimal(t *testing.T) {
	s := Snapshot{Workload: WorkloadGLM, Spec: "svm", Dataset: "reuters"}
	back, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	snapshotsEqual(t, s, back)
}

func TestSnapshotCodecNaN(t *testing.T) {
	s := testSnapshot()
	s.Loss = math.NaN()
	s.X = []float64{math.NaN()}
	back, err := DecodeSnapshot(EncodeSnapshot(s))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	snapshotsEqual(t, s, back)
}

func TestSnapshotCodecRejectsCorruption(t *testing.T) {
	good := EncodeSnapshot(testSnapshot())
	cases := map[string]func([]byte) []byte{
		"empty":        func(b []byte) []byte { return nil },
		"short":        func(b []byte) []byte { return b[:5] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xFF; return b },
		"bad version":  func(b []byte) []byte { b[6] = 0xFF; return b },
		"flipped bit":  func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)-9] },
		"trailing":     func(b []byte) []byte { return append(b, 0) },
		"crc mismatch": func(b []byte) []byte { b[len(b)-1] ^= 0xFF; return b },
	}
	for name, corrupt := range cases {
		data := corrupt(append([]byte(nil), good...))
		if _, err := DecodeSnapshot(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

// TestSnapshotCodecRejectsNewerVersion: every version but the current
// one is refused with an error naming both versions. Each input carries
// a valid CRC, so the refusal comes from the version check, not the
// checksum. The unreleased layouts 1–3 are stamped both on the current
// bytes and on the current bytes cut to their own, shorter, lengths.
func TestSnapshotCodecRejectsNewerVersion(t *testing.T) {
	good := EncodeSnapshot(testSnapshot())
	// Each development layout ended earlier: v1 before StealChunk,
	// DataRows, DataVersion and FixedOrder (29 bytes with the CRC), v2
	// before the ingest fields and FixedOrder (21), v3 before FixedOrder
	// (5).
	cases := []struct {
		ver uint16
		cut int
	}{
		{0, 4}, {1, 4}, {1, 29}, {2, 4}, {2, 21}, {3, 4}, {3, 5},
		{snapVersion + 1, 4}, {0xFFFF, 4},
	}
	for _, c := range cases {
		data := append([]byte(nil), good[:len(good)-c.cut]...)
		binary.LittleEndian.PutUint16(data[6:], c.ver)
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data))
		_, err := DecodeSnapshot(data)
		want := fmt.Sprintf("version %d, this build reads version %d", c.ver, snapVersion)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("version %d cut %d: want error %q, got %v", c.ver, c.cut, want, err)
		}
	}
}

// TestSnapshotCodecRejectsNonBoolFlag: the DenseStorage and FixedOrder
// bytes must be 0 or 1. A byte of 2 under a valid CRC would otherwise
// decode as true and re-encode as 1, a different file. The error names
// the field.
func TestSnapshotCodecRejectsNonBoolFlag(t *testing.T) {
	s := testSnapshot()
	good := EncodeSnapshot(s)
	// DenseStorage follows the magic, version, workload kind, the two
	// length-prefixed names, five 8-byte scalars and five plan enums;
	// FixedOrder is the last byte before the CRC.
	dense := len(snapMagic) + 2 + 1 + 4 + len(s.Spec) + 4 + len(s.Dataset) + 5*8 + 5
	for _, c := range []struct {
		field string
		off   int
	}{
		{"DenseStorage", dense},
		{"FixedOrder", len(good) - 5},
	} {
		if good[c.off] != 1 {
			t.Fatalf("%s: byte at offset %d is %d, want the encoded true (1)", c.field, c.off, good[c.off])
		}
		data := append([]byte(nil), good...)
		data[c.off] = 2
		binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(data[:len(data)-4]))
		_, err := DecodeSnapshot(data)
		want := c.field + " byte is 2, want 0 or 1"
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s = 2: want error %q, got %v", c.field, want, err)
		}
	}
}

func TestSnapshotCodecRejectsLyingLengths(t *testing.T) {
	// A claimed huge model vector must fail on the length check (before
	// any allocation), not attempt to read 2^31 floats.
	s := Snapshot{Spec: strings.Repeat("x", 10)}
	data := EncodeSnapshot(s)
	// The spec length prefix sits right after workload kind (1 byte)
	// at offset 8+1. Re-stamp the CRC so the lying length itself is
	// what the decoder trips on.
	data[9] = 0xFF
	data[10] = 0xFF
	data[11] = 0xFF
	data[12] = 0x7F
	body := data[:len(data)-4]
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
	if _, err := DecodeSnapshot(data); err == nil || !strings.Contains(err.Error(), "exceeds remaining input") {
		t.Fatalf("want length error, got %v", err)
	}
}

func TestSnapshotCodecRejectsUnboundedDraws(t *testing.T) {
	// Restore replays a generator in O(Draws); a crafted file claiming
	// an astronomical position must be rejected at decode, not hang the
	// restore. (CRC-32 is integrity, not authentication, so the file
	// can be perfectly well-formed.)
	s := testSnapshot()
	s.EngineRNG.Draws = MaxRNGDraws + 1
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); err == nil || !strings.Contains(err.Error(), "replay bound") {
		t.Fatalf("want replay-bound error, got %v", err)
	}
	s = testSnapshot()
	s.WorkerRNG[1].Draws = MaxRNGDraws + 1
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); err == nil || !strings.Contains(err.Error(), "replay bound") {
		t.Fatalf("want replay-bound error for worker generator, got %v", err)
	}
}

func TestCapRNGState(t *testing.T) {
	// Replayable positions pass through untouched.
	st := RNGState{Seed: 42, Draws: MaxRNGDraws}
	if got := CapRNGState(st); got != st {
		t.Fatalf("in-bound state changed: %+v", got)
	}
	// Past the bound the state degrades to a fresh derived generator —
	// encodable, decodable, and not the original seed at position zero
	// (which would replay randomness the run already consumed).
	over := RNGState{Seed: 42, Draws: MaxRNGDraws + 1}
	capped := CapRNGState(over)
	if capped.Draws != 0 {
		t.Fatalf("capped state still has draws: %+v", capped)
	}
	if capped.Seed == over.Seed || capped.Seed == 0 {
		t.Fatalf("capped seed %d not freshly derived", capped.Seed)
	}
	s := testSnapshot()
	s.EngineRNG = capped
	if _, err := DecodeSnapshot(EncodeSnapshot(s)); err != nil {
		t.Fatalf("capped state does not round-trip: %v", err)
	}
}

func TestSeededSourceRestoreReplaysStream(t *testing.T) {
	src := NewSeededSource(7)
	var lead []uint64
	for i := 0; i < 100; i++ {
		lead = append(lead, src.Uint64())
	}
	st := src.State()
	if st.Draws != 100 {
		t.Fatalf("draws = %d, want 100", st.Draws)
	}
	var tail []uint64
	for i := 0; i < 50; i++ {
		tail = append(tail, src.Uint64())
	}

	fresh := NewSeededSource(1)
	fresh.Restore(st)
	for i, want := range tail {
		if got := fresh.Uint64(); got != want {
			t.Fatalf("restored stream diverges at %d: %d vs %d", i, got, want)
		}
	}
	_ = lead
}
