package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"time"

	"dimmwitted/internal/model"
	"dimmwitted/internal/numa"
)

// The versioned binary snapshot codec. A serialized snapshot is
//
//	[0:6]  magic "dwsnap"
//	[6:8]  uint16 codec version (little-endian)
//	[8:n]  payload (fixed-width little-endian fields, see encode below)
//	[n:+4] uint32 IEEE CRC-32 of bytes [0:n]
//
// Versioning rules (see DESIGN.md "Durability"): the magic and version
// header never change; a layout change bumps the version, and the
// decoder reads exactly the current version and rejects every other
// one by number. The CRC covers header and payload, so torn or
// bit-rotted files fail loudly instead of restoring garbage.

// snapMagic identifies a serialized snapshot.
const snapMagic = "dwsnap"

// snapVersion is the codec version this build writes and the only one
// it reads. Versions 1–3 were development layouts, never released.
const snapVersion = 4

// maxSnapshotSlice caps decoded slice lengths (model vectors, replica
// blobs) so a corrupt or adversarial length prefix cannot force a huge
// allocation before the CRC check would have caught it.
const maxSnapshotSlice = 1 << 28

// MaxRNGDraws bounds an RNGState's position on both sides of the
// codec. Restore replays the stream in O(Draws), so an unbounded value
// in a crafted file (CRC-32 is integrity, not authentication) would
// hang restore; the cap keeps a hostile worst case to minutes while
// sitting far above any bundled workload (draws grow with epochs ×
// work units). Snapshot capture enforces the same bound via
// CapRNGState — a generator past it is replaced by a freshly derived
// one rather than written as a position no decoder will accept —
// so every checkpoint the store accepts is restorable.
const MaxRNGDraws = 1 << 36

// CapRNGState returns st unchanged while its position is replayable,
// and otherwise a fresh derived generator state. Past the bound exact
// stream continuation is forfeited either way (the decoder rejects the
// position); a remixed seed keeps the restored run statistically
// independent of the stream already consumed, which is the right
// degradation for sampling and SGD alike.
func CapRNGState(st RNGState) RNGState {
	if st.Draws <= MaxRNGDraws {
		return st
	}
	// splitmix64-style remix of (seed, draws) for an uncorrelated seed.
	z := uint64(st.Seed) ^ (st.Draws * 0x9E3779B97F4A7C15)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	seed := int64(z ^ (z >> 31))
	if seed == 0 {
		seed = 1
	}
	return RNGState{Seed: seed, Draws: 0}
}

// encBuf accumulates the encoding.
type encBuf struct{ b []byte }

func (e *encBuf) u8(v uint8)      { e.b = append(e.b, v) }
func (e *encBuf) u16(v uint16)    { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *encBuf) u32(v uint32)    { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *encBuf) u64(v uint64)    { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *encBuf) i64(v int64)     { e.u64(uint64(v)) }
func (e *encBuf) f64(v float64)   { e.u64(math.Float64bits(v)) }
func (e *encBuf) str(s string)    { e.u32(uint32(len(s))); e.b = append(e.b, s...) }
func (e *encBuf) bytes(b []byte)  { e.u32(uint32(len(b))); e.b = append(e.b, b...) }
func (e *encBuf) rng(st RNGState) { e.i64(st.Seed); e.u64(st.Draws) }

func (e *encBuf) flag(v bool) {
	if v {
		e.u8(1)
	} else {
		e.u8(0)
	}
}

// decBuf consumes a decoding with a sticky error.
type decBuf struct {
	b   []byte
	off int
	err error
}

func (d *decBuf) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("core: snapshot decode: "+format, args...)
	}
}

func (d *decBuf) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated at offset %d (need %d of %d remaining bytes)", d.off, n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *decBuf) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// flag reads a bool byte. Only 0 and 1 are accepted, so every decoded
// snapshot re-encodes to the bytes it came from.
func (d *decBuf) flag(field string) bool {
	v := d.u8()
	if v > 1 {
		d.fail("%s byte is %d, want 0 or 1", field, v)
	}
	return v == 1
}

func (d *decBuf) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (d *decBuf) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *decBuf) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *decBuf) i64() int64   { return int64(d.u64()) }
func (d *decBuf) f64() float64 { return math.Float64frombits(d.u64()) }

// sliceLen reads a length prefix and validates it against both the
// global cap and the bytes actually remaining (at elemSize bytes per
// element), so a lying prefix fails before allocation.
func (d *decBuf) sliceLen(what string, elemSize int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n > maxSnapshotSlice || n*elemSize > len(d.b)-d.off {
		d.fail("%s length %d exceeds remaining input", what, n)
		return 0
	}
	return n
}

func (d *decBuf) str() string {
	n := d.sliceLen("string", 1)
	return string(d.take(n))
}

func (d *decBuf) rng() RNGState {
	st := RNGState{Seed: d.i64(), Draws: d.u64()}
	if st.Draws > MaxRNGDraws {
		d.fail("generator position %d exceeds the replay bound %d", st.Draws, uint64(MaxRNGDraws))
	}
	return st
}

// EncodeSnapshot serializes a snapshot in the versioned binary format
// with a CRC-32 trailer.
func EncodeSnapshot(s Snapshot) []byte {
	e := &encBuf{b: make([]byte, 0, 64+8*len(s.X))}
	e.b = append(e.b, snapMagic...)
	e.u16(snapVersion)

	e.u8(uint8(s.Workload))
	e.str(s.Spec)
	e.str(s.Dataset)
	e.i64(int64(s.Epoch))
	e.f64(s.Loss)
	e.i64(int64(s.SimTime))
	e.i64(int64(s.WallTime))
	e.f64(s.Step)

	p := s.Plan
	e.u8(uint8(p.Access))
	e.u8(uint8(p.ModelRep))
	e.u8(uint8(p.DataRep))
	e.u8(uint8(p.Executor))
	e.u8(uint8(p.Placement))
	e.flag(p.DenseStorage)
	e.str(p.Machine.Name)
	e.i64(int64(p.Machine.Nodes))
	e.i64(int64(p.Machine.CoresPerNode))
	e.i64(int64(p.Machine.RAMPerNodeGB))
	e.f64(p.Machine.ClockGHz)
	e.i64(int64(p.Machine.LLCMB))
	e.i64(int64(p.Workers))
	e.f64(p.Step)
	e.f64(p.StepDecay)
	e.i64(int64(p.ChunkSize))
	e.i64(int64(p.SyncRounds))
	e.f64(p.ImportanceFraction)
	e.i64(p.Seed)
	e.f64(p.StepOverheadCycles)
	e.f64(p.ElementOverheadCycles)
	e.f64(p.EpochOverheadCycles)
	e.f64(p.ComputeScale)

	e.rng(s.EngineRNG)
	e.u32(uint32(len(s.WorkerRNG)))
	for _, st := range s.WorkerRNG {
		e.rng(st)
	}
	e.u32(uint32(len(s.X)))
	for _, x := range s.X {
		e.f64(x)
	}
	e.u32(uint32(len(s.Priv)))
	for _, blob := range s.Priv {
		e.bytes(blob)
	}
	e.i64(int64(p.StealChunk))
	e.i64(int64(s.DataRows))
	e.u64(s.DataVersion)
	e.flag(p.FixedOrder)

	e.u32(crc32.ChecksumIEEE(e.b))
	return e.b
}

// DecodeSnapshot parses a serialized snapshot, verifying the magic,
// version and CRC. It reads only the current codec version, so a file
// written by any other layout fails loudly instead of restoring a
// misread state.
func DecodeSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if len(data) < len(snapMagic)+2+4 {
		return s, fmt.Errorf("core: snapshot decode: %d bytes is shorter than the header", len(data))
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return s, fmt.Errorf("core: snapshot decode: bad magic %q", data[:len(snapMagic)])
	}
	body, trailer := data[:len(data)-4], data[len(data)-4:]
	if got, want := binary.LittleEndian.Uint32(trailer), crc32.ChecksumIEEE(body); got != want {
		return s, fmt.Errorf("core: snapshot decode: CRC mismatch (stored %08x, computed %08x)", got, want)
	}

	d := &decBuf{b: body, off: len(snapMagic)}
	ver := d.u16()
	if ver != snapVersion {
		return s, fmt.Errorf("core: snapshot decode: version %d, this build reads version %d", ver, snapVersion)
	}

	s.Workload = WorkloadKind(d.u8())
	s.Spec = d.str()
	s.Dataset = d.str()
	s.Epoch = int(d.i64())
	s.Loss = d.f64()
	s.SimTime = time.Duration(d.i64())
	s.WallTime = time.Duration(d.i64())
	s.Step = d.f64()

	var p Plan
	p.Access = model.Access(d.u8())
	p.ModelRep = ModelReplication(d.u8())
	p.DataRep = DataReplication(d.u8())
	p.Executor = ExecutorKind(d.u8())
	p.Placement = Placement(d.u8())
	p.DenseStorage = d.flag("DenseStorage")
	p.Machine = numa.Topology{
		Name:         d.str(),
		Nodes:        int(d.i64()),
		CoresPerNode: int(d.i64()),
		RAMPerNodeGB: int(d.i64()),
		ClockGHz:     d.f64(),
		LLCMB:        int(d.i64()),
	}
	p.Workers = int(d.i64())
	p.Step = d.f64()
	p.StepDecay = d.f64()
	p.ChunkSize = int(d.i64())
	p.SyncRounds = int(d.i64())
	p.ImportanceFraction = d.f64()
	p.Seed = d.i64()
	p.StepOverheadCycles = d.f64()
	p.ElementOverheadCycles = d.f64()
	p.EpochOverheadCycles = d.f64()
	p.ComputeScale = d.f64()
	s.Plan = p

	s.EngineRNG = d.rng()
	if n := d.sliceLen("worker generators", 16); d.err == nil && n > 0 {
		s.WorkerRNG = make([]RNGState, n)
		for i := range s.WorkerRNG {
			s.WorkerRNG[i] = d.rng()
		}
	}
	if n := d.sliceLen("model vector", 8); d.err == nil && n > 0 {
		s.X = make([]float64, n)
		for i := range s.X {
			s.X[i] = d.f64()
		}
	}
	if n := d.sliceLen("replica states", 4); d.err == nil && n > 0 {
		s.Priv = make([][]byte, n)
		for i := range s.Priv {
			m := d.sliceLen("replica state", 1)
			s.Priv[i] = append([]byte(nil), d.take(m)...)
		}
	}
	s.Plan.StealChunk = int(d.i64())
	s.DataRows = int(d.i64())
	s.DataVersion = d.u64()
	s.Plan.FixedOrder = d.flag("FixedOrder")

	if d.err != nil {
		return Snapshot{}, d.err
	}
	if d.off != len(body) {
		return Snapshot{}, fmt.Errorf("core: snapshot decode: %d trailing bytes", len(body)-d.off)
	}
	return s, nil
}
