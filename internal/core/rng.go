package core

import (
	"fmt"
	"math"
	"math/rand"
)

// RNGState is the serializable position of a SeededSource: the seed it
// started from and how many raw values it has produced since. A fresh
// source fast-forwarded by Draws values emits exactly the stream the
// original would have continued with, so checkpoints capture traversal
// randomness without copying the generator's internal state.
type RNGState struct {
	// Seed is the value the source was (re)seeded with.
	Seed int64
	// Draws is the number of raw 64-bit values produced since seeding.
	Draws uint64
}

// zero reports whether the state is absent (never-seeded); snapshots
// produced before RNG capture existed decode to the zero state.
func (s RNGState) zero() bool { return s.Seed == 0 && s.Draws == 0 }

// SeededSource is a rand.Source64 that wraps the standard library's
// seeded source and counts state advances, so its exact stream position
// can be captured in an RNGState and replayed later. Every generated
// value passes through unchanged: rand.New(NewSeededSource(s)) emits
// bit-for-bit the stream of rand.New(rand.NewSource(s)), which keeps
// golden-value tests pinned across the checkpointing change.
//
// A SeededSource is not safe for concurrent use, matching rand.Source.
type SeededSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

// NewSeededSource returns a counting source seeded with seed.
func NewSeededSource(seed int64) *SeededSource {
	return &SeededSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// Int63 implements rand.Source.
func (s *SeededSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64. The stdlib source advances its
// internal state once per value for both Int63 and Uint64, so a single
// counter covers both entry points.
func (s *SeededSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed implements rand.Source, resetting the draw counter.
func (s *SeededSource) Seed(seed int64) {
	s.seed, s.draws = seed, 0
	s.src.Seed(seed)
}

// State captures the source's current stream position.
func (s *SeededSource) State() RNGState {
	return RNGState{Seed: s.seed, Draws: s.draws}
}

// Restore repositions the source at st by reseeding and replaying
// st.Draws values. Replay is O(Draws) at ~1ns per value; engines draw a
// handful of values per epoch (permutations and leverage samples), so
// even million-epoch checkpoints restore in milliseconds. Callers
// restoring positions from untrusted bytes must bound Draws first —
// the snapshot codec enforces MaxRNGDraws.
func (s *SeededSource) Restore(st RNGState) {
	s.Seed(st.Seed)
	for i := uint64(0); i < st.Draws; i++ {
		s.src.Uint64()
	}
	s.draws = st.Draws
}

// String implements fmt.Stringer for debugging.
func (s *SeededSource) String() string {
	return fmt.Sprintf("SeededSource(seed=%d, draws=%d)", s.seed, s.draws)
}

// FillPerm fills p with a random permutation of 0..len(p)-1, making
// exactly rand.Perm's draws: a trajectory that reuses one buffer per
// epoch matches one that allocates a fresh permutation each time.
func FillPerm(rng *rand.Rand, p []int) {
	for i := range p {
		j := intn(rng, i+1)
		p[i] = p[j]
		p[j] = i
	}
}

// intn returns rng.Intn(n) from the same draws. For n < 2^31 that is
// Int31n: a power of two masks one draw; otherwise a draw v is
// rejected while it falls in the partial block of n values at the top
// of [0, 2^31), and the result is v mod n. Int31n finds that block
// with a second modulo per call; here v − v mod n, the start of v's
// block, locates it with the one modulo the result needs anyway.
func intn(rng *rand.Rand, n int) int {
	if n > math.MaxInt32 {
		return rng.Intn(n)
	}
	m := uint32(n)
	v := uint32(rng.Int63() >> 32)
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	for {
		q := v % m
		if v-q <= 1<<31-m {
			return int(q)
		}
		v = uint32(rng.Int63() >> 32)
	}
}
