package serve

import (
	"strconv"
)

// decodeAppend parses an append body in the canonical shape the
// clients emit — {"rows":[{"indices":[...],"values":[...]|"dense":[...],
// "label":x},...],"cols":n,"task":"..."}, keys in any order — without
// reflection. Numbers go through strconv.ParseInt/ParseFloat, the
// functions encoding/json uses, so every value is bitwise identical to
// what json.Unmarshal would produce; "[]" decodes to an empty non-nil
// slice and an absent key leaves nil, as encoding/json does.
//
// ok == false means "not mine", never "invalid": null, duplicate,
// case-variant or unknown keys, string escapes or non-ASCII, trailing
// data, integers out of range, fractional indices and malformed JSON
// all fall back to encoding/json, which stays the reference for every
// edge case and error message.
func decodeAppend(b []byte) (req appendRequest, ok bool) {
	s := appendScanner{b: b}
	if req, ok = s.request(); !ok {
		return appendRequest{}, false
	}
	s.ws()
	if s.i != len(s.b) {
		return appendRequest{}, false
	}
	return req, true
}

// appendScanner is a cursor over an append body. Integer and float
// arrays are carved out of two shared arenas (capacity-capped, so no
// row's slice can grow into its neighbour's), which keeps a chunk's
// decode to a handful of allocations.
type appendScanner struct {
	b      []byte
	i      int
	ints   []int32
	floats []float64
}

func (s *appendScanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes c (after optional whitespace) if it is next.
func (s *appendScanner) lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes an escape-free printable-ASCII string and returns its
// contents; anything else is not canonical.
func (s *appendScanner) str() ([]byte, bool) {
	if !s.lit('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		c := s.b[s.i]
		switch {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// number consumes a JSON number and reports whether it is an integer
// literal (no fraction or exponent).
func (s *appendScanner) number() (lit []byte, integer, ok bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.i < len(s.b) && s.b[s.i] >= '1' && s.b[s.i] <= '9':
		s.digits()
	default:
		return nil, false, false
	}
	integer = true
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.b[start:s.i], integer, true
}

// digits consumes one or more decimal digits.
func (s *appendScanner) digits() bool {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i > start
}

func (s *appendScanner) int(bits int) (int64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(string(lit), 10, bits)
	return n, err == nil
}

func (s *appendScanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// seq parses a JSON array, calling elem once per element.
func (s *appendScanner) seq(elem func() bool) bool {
	if !s.lit('[') {
		return false
	}
	if s.lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if s.lit(']') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

// obj parses a JSON object whose keys must be drawn from keys, each at
// most once, calling field with the key's index to parse its value.
func (s *appendScanner) obj(keys []string, field func(k int) bool) bool {
	if !s.lit('{') {
		return false
	}
	if s.lit('}') {
		return true
	}
	var seen uint
	for {
		name, ok := s.str()
		if !ok || !s.lit(':') {
			return false
		}
		k := 0
		for k < len(keys) && string(name) != keys[k] {
			k++
		}
		if k == len(keys) || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if !field(k) {
			return false
		}
		if s.lit('}') {
			return true
		}
		if !s.lit(',') {
			return false
		}
	}
}

func (s *appendScanner) int32s() ([]int32, bool) {
	if s.ints == nil {
		s.ints = make([]int32, 0, 1024)
	}
	start := len(s.ints)
	ok := s.seq(func() bool {
		n, ok := s.int(32)
		s.ints = append(s.ints, int32(n))
		return ok
	})
	return s.ints[start:len(s.ints):len(s.ints)], ok
}

func (s *appendScanner) float64s() ([]float64, bool) {
	if s.floats == nil {
		s.floats = make([]float64, 0, 1024)
	}
	start := len(s.floats)
	ok := s.seq(func() bool {
		f, ok := s.float()
		s.floats = append(s.floats, f)
		return ok
	})
	return s.floats[start:len(s.floats):len(s.floats)], ok
}

var (
	rowKeys     = []string{"indices", "values", "dense", "label"}
	requestKeys = []string{"rows", "cols", "task"}
)

func (s *appendScanner) row() (r appendRowJSON, ok bool) {
	ok = s.obj(rowKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			r.Indices, ok = s.int32s()
		case 1:
			r.Values, ok = s.float64s()
		case 2:
			r.Dense, ok = s.float64s()
		case 3:
			r.Label, ok = s.float()
		}
		return ok
	})
	return r, ok
}

func (s *appendScanner) request() (req appendRequest, ok bool) {
	ok = s.obj(requestKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			req.Rows = make([]appendRowJSON, 0, 64)
			ok = s.seq(func() bool {
				r, ok := s.row()
				req.Rows = append(req.Rows, r)
				return ok
			})
		case 1:
			var n int64
			n, ok = s.int(strconv.IntSize)
			req.Cols = int(n)
		case 2:
			var t []byte
			t, ok = s.str()
			req.Task = string(t)
		}
		return ok
	})
	return req, ok
}
