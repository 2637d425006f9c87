package serve

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
)

// Float literals are read once: the loop that checks the JSON number
// grammar also builds the decimal mantissa and exponent, and the value
// is then rounded by Eisel–Lemire (D. Lemire, "Number Parsing at a
// Gigabyte per Second", Software: Practice and Experience, 2021;
// https://nigeltao.github.io/blog/2020/eisel-lemire.html), with
// strconv.ParseFloat itself as the fallback whenever it cannot decide.
// Both are correctly rounded, so every value is bitwise what
// strconv.ParseFloat, and so encoding/json, returns. The exception is a
// literal with more than 800 significant digits that reaches the
// fallback: strconv misplaces its decimal point, so the scanner refuses
// it (see maxSignificantDigits).
//
// A fraction's digits are read eight to a load (SWAR, "SIMD within a
// register", from the same paper): one little-endian 64-bit load holds
// eight bytes, the first in the lowest lane, and a few word operations
// check and convert them all. The word loop runs while eight digits fit
// in the 19-digit budget, and a byte loop reads the tail. The integer
// part of a float stays a byte loop: JSON-encoded values near 1 put one
// digit there, and routing it through the word loop measured slower.

// asciiZeros is eight '0' bytes.
const asciiZeros = 0x3030303030303030

// allDigits reports whether all eight bytes of v are ASCII digits: a
// byte passes when it and the byte plus 6 both have high nibble 3,
// that is when it lies in '0'..'9'. Only a byte of 0xFA or above
// carries into the lane above, and that byte itself fails, so no carry
// can make a word pass.
func allDigits(v uint64) bool {
	return v&(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0 == asciiZeros
}

// digitsValue returns the number the eight digit values 0–9 in v's
// bytes spell, the lowest lane the most significant: pairs first, then
// the four pairs in two multiplies (Lemire's reduction).
func digitsValue(v uint64) uint64 {
	v = v*10 + v>>8 // lanes 0, 2, 4 and 6 hold the pairs
	const pairs = 0x000000FF000000FF
	return ((v&pairs)*(100+1000000<<32) + (v>>16&pairs)*(1+10000<<32)) >> 32
}

// float parses a JSON number literal. A literal strconv.ParseFloat
// rejects as out of range is not canonical; one it would misread is
// refused through s.err.
func (s *scanner) float() (float64, bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	// man holds the first 19 digits after a leading 0 (10^19 < 2^64)
	// and nd counts them; man·10^exp is the literal up to those digits,
	// and trunc records a nonzero digit after them.
	var man uint64
	nd, exp, trunc := 0, 0, false
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i]-'1' < 9:
		first, end := i, min(len(b), i+19)
		for ; i < end && b[i]-'0' < 10; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd = i - first
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			exp++
			trunc = trunc || b[i] != '0'
		}
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		first, end := i, min(len(b), i+19-nd)
		// Eight digits per load while eight fit; the tail a byte at a
		// time.
		for ; end-i >= 8; i += 8 {
			v := binary.LittleEndian.Uint64(b[i:])
			if !allDigits(v) {
				break
			}
			man = man*1e8 + digitsValue(v-asciiZeros)
		}
		for ; i < end && b[i]-'0' < 10; i++ {
			man = man*10 + uint64(b[i]-'0')
		}
		nd += i - first
		exp -= i - first
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			trunc = trunc || b[i] != '0'
		}
		if i == first {
			return 0, false
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		first := i
		e := 0
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			// strconv stops counting an exponent at the same point,
			// so both round the same man·10^exp.
			if e < 10000 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if i == first {
			return 0, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	s.i = i
	if !trunc {
		if f, ok := eiselLemire64(man, exp, neg); ok {
			return f, true
		}
	}
	if significantDigits(b[start:i]) > maxSignificantDigits {
		s.err = errLongNumber
		return 0, false
	}
	f, err := strconv.ParseFloat(string(b[start:i]), 64)
	return f, err == nil
}

// maxSignificantDigits is the most significant digits a literal may
// carry into strconv.ParseFloat. Its slow path keeps 800 digits and
// takes the decimal point's place from that capped count, so a longer
// integer part lands at the wrong power of ten: "1" followed by 10000
// zeros and "e-10000" reads as 0, and encoding/json returns the same.
const maxSignificantDigits = 800

// errLongNumber refuses a literal strconv.ParseFloat cannot read
// correctly: the request answers 400 instead of carrying a wrong value.
var errLongNumber = fmt.Errorf("number literal has more than %d significant digits", maxSignificantDigits)

// significantDigits counts a number literal's mantissa digits from its
// first nonzero digit on, through the fraction.
func significantDigits(lit []byte) int {
	n := 0
	for _, c := range lit {
		switch {
		case c == 'e' || c == 'E':
			return n
		case c-'1' < 9 || c == '0' && n > 0:
			n++
		}
	}
	return n
}

// eiselLemire64 returns man·10^exp10 correctly rounded, or false when
// it cannot decide: a halfway or too-narrow product, a subnormal or
// overflowing result, or exp10 outside the table. It is strconv's
// eiselLemire64 (src/strconv/eisel_lemire.go), which is not exported;
// the terse comments name sections of the blog post cited above.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if exp10 < pow10MinExp10 || pow10MaxExp10 < exp10 {
		return 0, false
	}
	pow10Once.Do(buildPowersOfTen)
	pow := &powersOfTen[exp10-pow10MinExp10]

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal, 0x7FF or
	// above Inf/NaN.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}

// The powers of ten Eisel–Lemire can use, inclusive.
const (
	pow10MinExp10 = -348
	pow10MaxExp10 = +347
)

// powersOfTen[e-pow10MinExp10] is 10^e's 128-bit mantissa, rounded
// down, as {low, high} 64-bit words with the high word's top bit set;
// the binary exponent is implied (see retExp2). It is built on first
// use, so a process that never decodes a body never pays for it.
var (
	pow10Once   sync.Once
	powersOfTen [pow10MaxExp10 - pow10MinExp10 + 1][2]uint64
)

func buildPowersOfTen() {
	var m big.Int
	set := func(e int) {
		var w [16]byte
		m.FillBytes(w[:])
		powersOfTen[e-pow10MinExp10] = [2]uint64{binary.BigEndian.Uint64(w[8:]), binary.BigEndian.Uint64(w[:8])}
	}
	ten := big.NewInt(10)
	p := big.NewInt(1)
	for e := 0; e <= pow10MaxExp10; e++ {
		// The top 128 bits of 10^e.
		if n := p.BitLen(); n > 128 {
			m.Rsh(p, uint(n-128))
		} else {
			m.Lsh(p, uint(128-n))
		}
		set(e)
		p.Mul(p, ten)
	}
	p.SetInt64(10)
	for e := -1; e >= pow10MinExp10; e-- {
		// 2^(n-1) < 10^-e < 2^n, so ⌊2^(127+n) / 10^-e⌋ has exactly
		// 128 bits.
		m.Lsh(big.NewInt(1), uint(127+p.BitLen()))
		m.Quo(&m, p)
		set(e)
		p.Mul(p, ten)
	}
}
