package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"time"

	"spmvtune/internal/atof"
	"spmvtune/internal/errdefs"
)

// The request body path of the three JSON endpoints (POST /v1/spmv,
// /v1/solve, /v1/solve/{id}/iterate): a sized, pooled read, then a scanner
// for the canonical JSON subset in front of encoding/json. DESIGN.md "The
// request body path" has the rationale.

// readBody reads a request body of at most MaxBodyBytes into a buffer from
// bodyPool, which the caller gives back. A declared Content-Length sizes
// the read exactly — and refuses an oversized body before a byte of it is
// read; without one the read grows the buffer as it goes, as io.ReadAll
// does, until http.MaxBytesReader trips at the limit. An oversized body is
// reported as *http.MaxBytesError either way.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if err := s.declaredTooLarge(r); err != nil {
		return nil, err
	}
	limit, n := s.cfg.MaxBodyBytes, r.ContentLength
	if n <= 0 {
		return readAll(http.MaxBytesReader(w, r.Body, limit), bodyPool.largest())
	}
	buf := bodyPool.get(int(n))
	if _, err := io.ReadFull(r.Body, buf); err != nil {
		bodyPool.put(buf)
		return nil, err
	}
	return buf, nil
}

// readAll is io.ReadAll appending to b. On an error b goes back to
// bodyPool.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			bodyPool.put(b)
			return nil, err
		}
	}
}

// declaredTooLarge refuses a body whose declared Content-Length exceeds
// MaxBodyBytes, as *http.MaxBytesError, before a byte of it is read.
func (s *Server) declaredTooLarge(r *http.Request) error {
	if r.ContentLength > s.cfg.MaxBodyBytes {
		return &http.MaxBytesError{Limit: s.cfg.MaxBodyBytes}
	}
	return nil
}

// readRequest is a JSON endpoint's way from handler entry to a validated
// request: read the body, decode it, give the buffer back, and account the
// stage (spmvd_decode_seconds, spmvd_decode_fallback_total). On failure it
// has written the error response and returns ok=false.
func readRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, ep int, decode func([]byte) (*T, bool, error)) (req *T, ok bool) {
	start := time.Now()
	buf, err := s.readBody(w, r)
	if err != nil {
		s.writeError(w, tooLarge(errdefs.Invalidf("server: read body: %w", err)))
		return nil, false
	}
	req, stdlib, err := decode(buf)
	bodyPool.put(buf)
	if stdlib {
		s.m.decodeFallbacks.Add(1)
	}
	if err != nil {
		s.writeError(w, err)
		return nil, false
	}
	s.m.decodes[ep].Add(1)
	s.m.decodeNs[ep].Add(time.Since(start).Nanoseconds())
	return req, true
}

// field is one row of a request's field table: the JSON key, spelled exactly
// as the struct tag, and where its value goes. The destination's type is the
// field's kind: *string, *int, *float64, *[]float64 or *[][]float64.
type field struct {
	tag string
	dst any
}

// unmarshalBody fills *req from a JSON body and reports whether
// encoding/json did the work. Bodies in the canonical subset every
// mainstream encoder emits (see scanBody) are decoded by the scanner; any
// other body goes through json.Unmarshal, which stays the specification of
// what the API accepts. The choice is made from the body's own syntax.
// With lend > 0, the scanner's vectors are scratchPool's (see vectors).
func unmarshalBody[T any](data []byte, req *T, fields func(*T) []field, lend int) (stdlib bool, err error) {
	preset := *req
	if scanBody(data, fields(req), lend) {
		return false, nil
	}
	// Not canonical, possibly noticed midway: drop what the scanner had
	// decoded by then, so encoding/json starts from the presets and no
	// half-decoded field leaks into its result. Vectors it lent by then
	// are left to the GC.
	*req = preset
	if err := json.Unmarshal(data, req); err != nil {
		return true, errdefs.Invalidf("server: bad request body: %v", err)
	}
	return true, nil
}

// scanBody decodes data into the fields' destinations in one left-to-right
// pass, or reports false — "not canonical", which is not "invalid". It
// recognizes one top-level object with JSON whitespace anywhere; each key
// one of the fields' tags spelled exactly, at most once; strings of
// printable ASCII without escapes; int fields as integer literals; float
// fields and vector elements as JSON-grammar numbers. A number decodes to
// the bits of the call encoding/json itself makes (strconv.ParseFloat /
// ParseInt): the scanner either computes them exactly or makes that call.
// Unknown or case-folded keys, duplicates, null, escapes, non-ASCII, a
// literal strconv rejects, trailing bytes: all false. With lend > 0,
// vectors are scratchPool's buffers, at most lend of one array (see
// vectors).
func scanBody(data []byte, fields []field, lend int) bool {
	s := scanner{data: data, lend: lend}
	var seen uint64 // bit i: fields[i] already assigned
	s.ws()
	ok := s.elems('{', '}', func() bool {
		key, ok := s.str()
		i := 0
		for i < len(fields) && fields[i].tag != string(key) {
			i++
		}
		if !ok || i == len(fields) || seen&(1<<i) != 0 {
			return false
		}
		seen |= 1 << i
		s.ws()
		if !s.eat(':') {
			return false
		}
		s.ws()
		return s.value(fields[i].dst)
	})
	s.ws()
	return ok && s.i == len(s.data)
}

// scanner is a cursor over a request body. A lending scanner (lend > 0)
// decodes vectors into scratchPool's buffers, at most lend of one array.
type scanner struct {
	data []byte
	i    int
	lend int
}

func (s *scanner) ws() {
	for s.i < len(s.data) && (s.data[s.i] == ' ' || s.data[s.i] == '\n' || s.data[s.i] == '\t' || s.data[s.i] == '\r') {
		s.i++
	}
}

func (s *scanner) eat(c byte) bool {
	if s.i < len(s.data) && s.data[s.i] == c {
		s.i++
		return true
	}
	return false
}

// next consumes the separator after an element of an object or array: a
// comma (more elements follow; the cursor is left on the next one) or the
// closing delimiter.
func (s *scanner) next(closing byte) (more, ok bool) {
	s.ws()
	if s.eat(',') {
		s.ws()
		return true, true
	}
	return false, s.eat(closing)
}

// elems scans an object or array from its opening delimiter to its closing
// one, calling elem with the cursor on each comma-separated element.
func (s *scanner) elems(opening, closing byte, elem func() bool) bool {
	if !s.eat(opening) {
		return false
	}
	s.ws()
	for more := !s.eat(closing); more; {
		if !elem() {
			return false
		}
		var ok bool
		if more, ok = s.next(closing); !ok {
			return false
		}
	}
	return true
}

// str scans a string of printable ASCII without escapes and returns its
// contents, aliasing the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.eat('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.data) && ' ' <= s.data[s.i] && s.data[s.i] <= '~' && s.data[s.i] != '"' && s.data[s.i] != '\\' {
		s.i++
	}
	return s.data[start:s.i], s.eat('"')
}

// num scans one literal of the JSON number grammar at the cursor,
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, converts it in the same walk, and
// reports whether it has neither fraction nor exponent. It is numFrom from
// the literal's first digit.
func (s *scanner) num() (f float64, integer, ok bool) {
	if s.i >= len(s.data) {
		return 0, false, false
	}
	f, integer, s.i, ok = numFrom(s.data, s.i, s.i+is(s.data[s.i], '-'), 0, 0, -1)
	return f, integer, ok
}

// numFrom is the number grammar and its conversion, resumed from the state
// a scan of the literal starting at d[start] reached at j: m and e are the
// mantissa and decimal exponent of the digits before j, every one of them
// kept; dot is the index of the literal's '.' when j is past it, else -1.
// It returns the value, whether the literal is an integer, and the index
// after the literal. The grammar is checked here because strconv alone also
// accepts +1, .5, 1., 0x1p-2, 1_0 and Inf; bytes that are not a number
// return end = start.
//
// The digits go into m under atof.MantLimit — the first 19 significant
// digits, e and a truncation flag, exactly as strconv's own scan does, the
// exponent part saturating at 10^4 as there — and atof.Convert turns them
// into the bits strconv.ParseFloat returns. A literal Convert declines is
// converted by strconv.ParseFloat, and one it rejects (1e999) is not a
// number here either, with end after it.
func numFrom(d []byte, start, j int, m uint64, e, dot int) (f float64, integer bool, end int, ok bool) {
	k, trunc := start+is(d[start], '-'), false
	intEnd := dot
	if dot < 0 {
		for ; j < len(d) && d[j]-'0' <= 9; j++ {
			if m < atof.MantLimit {
				m = m*10 + uint64(d[j]-'0')
			} else {
				e++
				trunc = trunc || d[j] != '0'
			}
		}
		if intEnd = j; j < len(d) && d[j] == '.' {
			dot, j = j, j+1
		}
	}
	if intEnd == k || intEnd > k+1 && d[k] == '0' {
		return 0, false, start, false
	}
	if dot >= 0 {
		for ; j < len(d) && d[j]-'0' <= 9; j++ {
			if m < atof.MantLimit {
				m = m*10 + uint64(d[j]-'0')
				e--
			} else if d[j] != '0' {
				trunc = true
			}
		}
		if j == dot+1 {
			return 0, false, start, false
		}
	}
	integer = dot < 0
	if j < len(d) && d[j]|0x20 == 'e' {
		j++
		eneg := 0
		if j < len(d) {
			eneg = is(d[j], '-')
			j += eneg | is(d[j], '+')
		}
		x, digits := 0, j
		for ; j < len(d) && d[j]-'0' <= 9; j++ {
			if x < 1e4 {
				x = x*10 + int(d[j]-'0')
			}
		}
		if j == digits {
			return 0, false, start, false
		}
		e += x ^ -eneg + eneg // -x when eneg
		integer = false
	}
	if f, ok = atof.Convert(m, e, k != start, trunc); ok {
		return f, integer, j, true
	}
	f, err := strconv.ParseFloat(string(d[start:j]), 64)
	return f, integer, j, err == nil
}

// is is 1 when c == x and 0 otherwise, computed without a branch.
func is(c, x byte) int {
	return int(uint64(int(c^x)-1) >> 63)
}

// value scans one value of dst's kind into *dst.
func (s *scanner) value(dst any) (ok bool) {
	switch p := dst.(type) {
	case *string:
		var tok []byte
		tok, ok = s.str()
		*p = string(tok)
	case *int:
		start := s.i
		_, integer, _ := s.num()
		if !integer {
			return false
		}
		n, err := strconv.ParseInt(string(s.data[start:s.i]), 10, strconv.IntSize)
		*p, ok = int(n), err == nil
	case *float64:
		*p, _, ok = s.num()
	case *[]float64:
		*p, ok = s.vector()
	case *[][]float64:
		*p, ok = s.vectors()
	}
	return ok
}

// vector scans an array of numbers in one loop (appendNumbers) into a
// buffer from scratchPool. A lending scanner returns that buffer itself,
// for its caller to give back; otherwise the vector is one exact
// allocation and a copy, and the buffer goes back at once. Either way it
// is sized only from elements already parsed — a body of a million commas
// allocates nothing.
func (s *scanner) vector() (v []float64, ok bool) {
	if s.i >= len(s.data) || s.data[s.i] != '[' {
		return nil, false
	}
	buf, ok := s.array(scratchPool.largest())
	if ok && s.lend > 0 {
		return buf, true
	}
	if ok {
		v = make([]float64, len(buf))
		copy(v, buf)
	}
	scratchPool.put(buf)
	return v, ok
}

// array appends the array of numbers at the cursor to buf.
func (s *scanner) array(buf []float64) (_ []float64, ok bool) {
	if !s.eat('[') {
		return buf, false
	}
	s.ws()
	if s.eat(']') {
		return buf, true
	}
	buf, s.i, ok = appendNumbers(buf, s.data, s.i)
	return buf, ok
}

// appendNumbers appends to buf the elements of the array of numbers whose
// first element is at d[i], and returns buf and the index after the
// closing bracket, or false at the first byte outside the grammar. The
// cursor is a local. The common element, -?(0|[1-9]\d*)(\.\d+)? of at most
// 15 digits and no exponent, is accumulated and converted inline by
// atof.Short, and a comma directly followed by the next element is taken
// without a whitespace scan. The inline step stops at 15 digits, so m stays
// below 10^15 < 2^52, inside Short's domain, and each digit it took is one
// numFrom keeps too: any other element is finished by numFrom from the
// state the inline step reached, and no literal is scanned twice.
func appendNumbers(buf []float64, d []byte, i int) ([]float64, int, bool) {
	for i < len(d) {
		start := i
		k := i + is(d[i], '-') // no branch: spmvd's vectors are signed at random
		j, m := k, uint64(0)
		for lim := min(len(d), k+15); j < lim && d[j]-'0' <= 9; j++ {
			m = m*10 + uint64(d[j]-'0')
		}
		short := j == k+1 || j > k+1 && d[k] != '0'
		e, dot := 0, -1
		if j < len(d) && d[j] == '.' {
			dot, j = j, j+1
			for lim := min(len(d), k+16); j < lim && d[j]-'0' <= 9; j++ {
				m = m*10 + uint64(d[j]-'0')
			}
			e = dot + 1 - j
			short = short && e < 0
		}
		var f float64
		short = short && (j == len(d) || d[j]-'0' > 9 && d[j]|0x20 != 'e')
		if short {
			f, short = atof.Short(m, e, k != start)
		}
		if !short {
			var ok bool
			if f, _, j, ok = numFrom(d, start, j, m, e, dot); !ok {
				return buf, j, false
			}
		}
		buf = append(buf, f)
		if j+1 < len(d) && d[j] == ',' && d[j+1] > ' ' {
			i = j + 1
			continue
		}
		s := scanner{data: d, i: j}
		more, ok := s.next(']')
		if !more || !ok {
			return buf, s.i, ok
		}
		i = s.i
	}
	return buf, i, false
}

// vectors scans an array of vectors. The outer slice grows with the
// vectors actually parsed. A lending scanner lends at most s.lend of them,
// the batch limit: past it the request will be refused, so each further
// vector is parsed into one spare buffer and kept as nil — an over-long
// batch of tiny vectors cannot fill scratchPool with buffers.
func (s *scanner) vectors() ([][]float64, bool) {
	vs := [][]float64{}
	var spare []float64
	ok := s.elems('[', ']', func() (ok bool) {
		var v []float64
		if s.lend > 0 && len(vs) >= s.lend {
			spare, ok = s.array(spare[:0])
		} else {
			v, ok = s.vector()
		}
		vs = append(vs, v)
		return ok
	})
	scratchPool.put(spare)
	return vs, ok
}
