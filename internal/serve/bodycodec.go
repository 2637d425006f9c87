package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
)

// The body codec of the two JSON-heavy routes, POST /v1/predict and
// POST /v1/datasets/{id}/append: a pooled body read, and a
// reflection-free scanner for the canonical request shapes with
// encoding/json as the fallback.

// maxPooledBuf caps both how far a declared Content-Length may presize
// a body buffer and which buffers go back to bufPool: a client that
// declares 64 MiB and sends nothing costs at most 1 MiB, and one huge
// body does not stay pinned in the pool.
const maxPooledBuf = 1 << 20

// bufPool recycles request-body and reply buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func getBuf() *bytes.Buffer { return bufPool.Get().(*bytes.Buffer) }

func putBuf(b *bytes.Buffer) {
	if b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	bufPool.Put(b)
}

// readBody reads r to EOF into buf, presizing from a declared length
// (negative when unknown) up to maxPooledBuf.
func readBody(buf *bytes.Buffer, r io.Reader, declared int64) error {
	buf.Grow(int(min(max(declared, 0), maxPooledBuf)) + bytes.MinRead)
	_, err := buf.ReadFrom(r)
	return err
}

// decodeBody reads the whole (capped) body into a pooled buffer and
// decodes it with fast, the route's canonical scanner, falling back to
// encoding/json on anything the scanner does not claim
// (errNotCanonical), so every error but the scanner's own refusals
// keeps encoding/json's wording. The body is read in full before any
// of it is decoded, so a body over the cap answers 413 even when its
// first JSON value would have decoded (or failed) within it; any other
// failure answers 400. false means the error response is written. A
// non-nil clock laps stageRead when the read ends.
//
// The buffer goes back to the pool before decodeBody returns. That is
// safe because nothing decoded aliases it: the scanner copies strings
// out and carves numbers into its own arenas, and encoding/json copies
// everything it keeps.
func decodeBody[T any](s *Server, w http.ResponseWriter, r *http.Request, what string, fast func([]byte) (T, error), clock *stageClock) (T, bool) {
	buf := getBuf()
	defer putBuf(buf)
	var req T
	err := readBody(buf, r.Body, r.ContentLength)
	if clock != nil {
		clock.lap(stageRead)
	}
	if err == nil {
		if req, err = fast(buf.Bytes()); err == nil {
			return req, true
		}
		if err == errNotCanonical {
			err = json.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&req)
		}
	}
	if err != nil {
		s.writeBodyError(w, err, what)
		var zero T
		return zero, false
	}
	return req, true
}

// decodeAppend parses an append body in the canonical shape the
// clients emit — {"rows":[{"indices":[...],"values":[...]|"dense":[...],
// "label":x},...],"cols":n,"task":"..."}, keys in any order — without
// reflection. Every value is bitwise identical to what json.Unmarshal
// would produce: floats are read once and rounded exactly as
// strconv.ParseFloat, the function encoding/json uses, rounds them
// (see float.go), and integers are parsed with strconv.ParseInt's
// accept set. "[]" decodes to an empty non-nil slice and an absent key
// leaves nil, as encoding/json does.
//
// errNotCanonical means "not mine", never "invalid": null, duplicate,
// case-variant or unknown keys, string escapes or non-ASCII, trailing
// data, integers out of range, fractional indices and malformed JSON
// all fall back to encoding/json, which stays the reference for every
// edge case and error message. The one refusal is errLongNumber (see
// float.go), which encoding/json would decode to a wrong value.
func decodeAppend(b []byte) (appendRequest, error) {
	s := scanner{b: b}
	req, ok := s.appendRequest()
	if !ok || !s.end() {
		return appendRequest{}, s.failure()
	}
	return req, nil
}

// errNotCanonical is the scanner's "not mine": the body is left to
// encoding/json.
var errNotCanonical = errors.New("serve: body is not in the scanner's canonical shape")

// decodePredict parses a predict body in the canonical shape —
// {"model":"...","examples":[{"indices":[...],"values":[...]}|
// {"dense":[...]},...]}, keys in any order — under decodeAppend's
// contract, word for word.
func decodePredict(b []byte) (predictRequest, error) {
	s := scanner{b: b}
	req, ok := s.predictRequest()
	if !ok || !s.end() {
		return predictRequest{}, s.failure()
	}
	return req, nil
}

// scanner is a cursor over a request body. Integer and float arrays
// are carved out of two arenas (see push), which keeps a body's decode
// to a handful of allocations.
type scanner struct {
	b      []byte
	i      int
	ints   []int32
	floats []float64
	// err is set when the scanner refuses the body rather than leaving
	// it to encoding/json.
	err error
}

// failure is a decode's error once the scanner has stopped: its
// refusal, or errNotCanonical.
func (s *scanner) failure() error {
	if s.err != nil {
		return s.err
	}
	return errNotCanonical
}

// ws skips whitespace. Compact bodies (what json.Marshal writes) carry
// none, so the first byte test usually ends it.
func (s *scanner) ws() {
	for s.i < len(s.b) && s.b[s.i] <= ' ' {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// lit consumes c (after optional whitespace) if it is next. It looks
// for c before it looks for whitespace, which a compact body never has.
func (s *scanner) lit(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] != c {
		s.ws()
	}
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes an escape-free printable-ASCII string and returns its
// contents; anything else is not canonical.
func (s *scanner) str() ([]byte, bool) {
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

// int parses an integer literal in one pass, accepting exactly what
// strconv.ParseInt(lit, 10, bits) accepts of a JSON integer: no
// leading zeros, "-0" allowed, the signed bounds exact. A fraction or
// exponent is not canonical.
func (s *scanner) int(bits int) (int64, bool) {
	s.ws()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	start := s.i
	var n uint64
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		n = n*10 + uint64(s.b[s.i]-'0')
		s.i++
	}
	// 19 digits always fit in a uint64; more never fit in an int64.
	if d := s.i - start; d == 0 || d > 19 || (d > 1 && s.b[start] == '0') {
		return 0, false
	}
	if s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		return 0, false
	}
	limit := uint64(1) << (bits - 1)
	if neg {
		// -limit converts to the minimum itself: int64(1<<63) wraps to
		// math.MinInt64, which negation leaves in place.
		return -int64(n), n <= limit
	}
	return int64(n), n < limit
}

// seq parses a JSON array, calling elem once per element. The number
// arrays have loops of their own (int32s, float64s); seq serves the
// arrays of objects.
func (s *scanner) seq(elem func() bool) bool {
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
func (s *scanner) obj(keys []string, field func(k int) bool) bool {
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

// push appends v to the array (*a)[*start:] being decoded. A full
// arena is not regrown in place: the array moves alone to a fresh arena
// twice the size, and the arrays already carved out keep the old one.
// So a regrowth copies one array, not everything decoded so far, and no
// decoded slice pins a backing array that has been copied elsewhere.
// The first arena is allocated at the first number, so a body that is
// malformed before any number allocates none.
func push[E int32 | float64](a *[]E, start *int, v E) {
	if len(*a) == cap(*a) {
		n := len(*a) - *start
		next := make([]E, n, max(2*cap(*a), 2*n, 256))
		copy(next, (*a)[*start:])
		*a, *start = next, 0
	}
	*a = append(*a, v)
}

// carve returns the array a[start:], capacity-capped so that no array
// can grow into its neighbour's. An empty array decodes to an empty
// non-nil slice, as encoding/json does.
func carve[E any](a []E, start int) []E {
	if len(a) == start {
		return []E{}
	}
	return a[start:len(a):len(a)]
}

// int32s and float64s parse a number array in their own loop, not
// through seq, so no closure runs per element.
func (s *scanner) int32s() ([]int32, bool) {
	start := len(s.ints)
	if !s.lit('[') {
		return nil, false
	}
	if s.lit(']') {
		return []int32{}, true
	}
	for {
		n, ok := s.int(32)
		if !ok {
			return nil, false
		}
		push(&s.ints, &start, int32(n))
		if !s.lit(',') {
			return carve(s.ints, start), s.lit(']')
		}
	}
}

func (s *scanner) float64s() ([]float64, bool) {
	start := len(s.floats)
	if !s.lit('[') {
		return nil, false
	}
	if s.lit(']') {
		return []float64{}, true
	}
	for {
		f, ok := s.float()
		if !ok {
			return nil, false
		}
		push(&s.floats, &start, f)
		if !s.lit(',') {
			return carve(s.floats, start), s.lit(']')
		}
	}
}

var (
	rowKeys     = []string{"indices", "values", "dense", "label"}
	appendKeys  = []string{"rows", "cols", "task"}
	exampleKeys = []string{"indices", "values", "dense"}
	predictKeys = []string{"model", "examples"}
)

func (s *scanner) row() (r appendRowJSON, ok bool) {
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

func (s *scanner) appendRequest() (req appendRequest, ok bool) {
	ok = s.obj(appendKeys, func(k int) (ok bool) {
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

func (s *scanner) example() (ex exampleJSON, ok bool) {
	ok = s.obj(exampleKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			ex.Indices, ok = s.int32s()
		case 1:
			ex.Values, ok = s.float64s()
		case 2:
			ex.Dense, ok = s.float64s()
		}
		return ok
	})
	return ex, ok
}

func (s *scanner) predictRequest() (req predictRequest, ok bool) {
	ok = s.obj(predictKeys, func(k int) (ok bool) {
		switch k {
		case 0:
			var m []byte
			m, ok = s.str()
			req.Model = string(m)
		case 1:
			req.Examples = make([]exampleJSON, 0, 64)
			ok = s.seq(func() bool {
				ex, ok := s.example()
				req.Examples = append(req.Examples, ex)
				return ok
			})
		}
		return ok
	})
	return req, ok
}
