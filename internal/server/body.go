package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"spmvtune/internal/errdefs"
)

// The request body path of the three JSON endpoints (POST /v1/spmv,
// /v1/solve, /v1/solve/{id}/iterate): a sized, pooled read, then a scanner
// for the canonical JSON subset in front of encoding/json. DESIGN.md "The
// request body path" has the rationale.

// bodyPool recycles request-body buffers. A decoded request aliases nothing
// in its body (strings are copied, numbers parsed), so the buffer goes back
// the moment decoding ends. Decoded vectors are never pooled: the
// coalescer's flush goroutine can outlive the handler that enqueued them.
var bodyPool sync.Pool // of *[]byte

// readBody reads a request body of at most MaxBodyBytes into a buffer the
// caller returns to bodyPool. A declared Content-Length sizes the read
// exactly — and refuses an oversized body before a byte of it is read;
// without one the limited ReadAll grows as it goes. An oversized body is
// reported as *http.MaxBytesError either way.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	limit, n := s.cfg.MaxBodyBytes, r.ContentLength
	if n > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	if n <= 0 {
		b, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
		return &b, err
	}
	buf, _ := bodyPool.Get().(*[]byte)
	if buf == nil || int64(cap(*buf)) < n {
		buf = new([]byte)
		*buf = make([]byte, n)
	}
	*buf = (*buf)[:n]
	if _, err := io.ReadFull(r.Body, *buf); err != nil {
		bodyPool.Put(buf)
		return nil, err
	}
	return buf, nil
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
	req, stdlib, err := decode(*buf)
	bodyPool.Put(buf)
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
func unmarshalBody[T any](data []byte, req *T, fields func(*T) []field) (stdlib bool, err error) {
	preset := *req
	if scanBody(data, fields(req)) {
		return false, nil
	}
	// Not canonical, possibly noticed midway: drop what the scanner had
	// decoded by then, so encoding/json starts from the presets and no
	// half-decoded field leaks into its result.
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
// fields and vector elements as JSON-grammar numbers. Every token is
// converted by the call encoding/json itself makes (strconv.ParseFloat /
// ParseInt), so an accepted body decodes to the same bits json.Unmarshal
// yields. Unknown or case-folded keys, duplicates, null, escapes, non-ASCII,
// a literal strconv rejects, trailing bytes: all false.
func scanBody(data []byte, fields []field) bool {
	s := scanner{data: data}
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

// scanner is a cursor over a request body.
type scanner struct {
	data []byte
	i    int
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

// digits returns the index after the run of decimal digits at d[i:].
func digits(d []byte, i int) int {
	for i < len(d) && '0' <= d[i] && d[i] <= '9' {
		i++
	}
	return i
}

// number scans one literal of the JSON number grammar,
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)?, and reports whether it has neither
// fraction nor exponent. The grammar is checked here because strconv alone
// also accepts +1, .5, 1., 0x1p-2, 1_0 and Inf. tok is nil when the bytes at
// the cursor are not a number.
func (s *scanner) number() (tok []byte, integer bool) {
	d, i := s.data, s.i
	if i < len(d) && d[i] == '-' {
		i++
	}
	j := digits(d, i)
	if j == i || j > i+1 && d[i] == '0' {
		return nil, false
	}
	i, integer = j, true
	if i < len(d) && d[i] == '.' {
		if j = digits(d, i+1); j == i+1 {
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if j = digits(d, i); j == i {
			return nil, false
		}
		i, integer = j, false
	}
	tok = d[s.i:i]
	s.i = i
	return tok, integer
}

// value scans one value of dst's kind into *dst.
func (s *scanner) value(dst any) (ok bool) {
	switch p := dst.(type) {
	case *string:
		var tok []byte
		tok, ok = s.str()
		*p = string(tok)
	case *int:
		tok, integer := s.number()
		if !integer {
			return false
		}
		n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
		*p, ok = int(n), err == nil
	case *float64:
		*p, ok = s.float()
	case *[]float64:
		*p, ok = s.vector()
	case *[][]float64:
		*p, ok = s.vectors()
	}
	return ok
}

func (s *scanner) float() (float64, bool) {
	tok, _ := s.number()
	if tok == nil {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// vector scans an array of numbers in two passes: a grammar-only pass to
// the closing bracket that counts the elements, then one exact allocation
// and the ParseFloat pass. The vector is therefore sized only from bytes
// already syntax-checked — a body of a million commas allocates nothing.
func (s *scanner) vector() ([]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	s.ws()
	start, n := s.i, 0
	for more := !s.eat(']'); more; n++ {
		if tok, _ := s.number(); tok == nil {
			return nil, false
		}
		var ok bool
		if more, ok = s.next(']'); !ok {
			return nil, false
		}
	}
	end := s.i
	s.i = start
	v := make([]float64, n)
	for k := range v {
		var ok bool
		if v[k], ok = s.float(); !ok {
			return nil, false
		}
		s.next(']') // the separator the first pass checked
	}
	s.i = end
	return v, true
}

// vectors scans an array of vectors. The outer slice grows with the
// vectors actually parsed.
func (s *scanner) vectors() ([][]float64, bool) {
	vs := [][]float64{}
	ok := s.elems('[', ']', func() bool {
		v, ok := s.vector()
		vs = append(vs, v)
		return ok
	})
	return vs, ok
}
