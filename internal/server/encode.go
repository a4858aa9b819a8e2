package server

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"

	"spmvtune/internal/atof"
)

// The response path. The bodies that carry vectors — spmvResponse and
// sessionStatus — write their own JSON, the bytes encoding/json writes for
// them, with each float's digits from atof.AppendFloat; every other body
// goes through encoding/json. DESIGN.md "The response path" has the
// measurements.

// jsonAppender is a response body that appends its own JSON text, the
// bytes json.Marshal gives it. A value JSON cannot carry is refused with
// the error json.Marshal returns for it.
type jsonAppender interface {
	appendJSON(dst []byte) ([]byte, error)
}

// encodeResponse encodes v and a newline — what json.Encoder.Encode writes
// — into a buffer from respPool, which the caller gives back, through v's
// appendJSON when it has one.
func encodeResponse(v any) ([]byte, error) {
	buf := respPool.largest()
	var err error
	if a, ok := v.(jsonAppender); ok {
		buf, err = a.appendJSON(buf)
		buf = append(buf, '\n')
	} else {
		w := bytes.NewBuffer(buf)
		err = json.NewEncoder(w).Encode(v)
		buf = w.Bytes()
	}
	return buf, err
}

func (r spmvResponse) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = appendString(append(b, `{"matrix":`...), r.Matrix)
	b = appendString(append(b, `,"plan":`...), r.Plan)
	b = strconv.AppendInt(append(b, `,"u":`...), int64(r.U), 10)
	b = strconv.AppendBool(append(b, `,"cacheHit":`...), r.CacheHit)
	b = strconv.AppendBool(append(b, `,"degraded":`...), r.Degraded)
	if r.DegradedReason != "" {
		b = appendString(append(b, `,"degradedReason":`...), r.DegradedReason)
	}
	b = strconv.AppendInt(append(b, `,"fallbacks":`...), int64(r.Fallbacks), 10)
	if r.TraceID != "" {
		b = appendString(append(b, `,"traceId":`...), r.TraceID)
	}
	if len(r.Result) > 0 {
		if b, err = appendFloats(append(b, `,"result":`...), r.Result); err != nil {
			return b, err
		}
	}
	if len(r.Results) > 0 {
		n := 0
		for _, v := range r.Results {
			n += floatsLen(v)
		}
		b = slices.Grow(b, n+len(`,"results":[]`))
		b = append(b, `,"results":[`...)
		for i, v := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendFloats(b, v); err != nil {
				return b, err
			}
		}
		b = append(b, ']')
	}
	if b, err = appendFloat(append(b, `,"elapsedMs":`...), r.ElapsedMs); err != nil {
		return b, err
	}
	return append(b, '}'), nil
}

func (st sessionStatus) appendJSON(b []byte) ([]byte, error) {
	var err error
	b = appendString(append(b, `{"session":`...), st.Session)
	b = appendString(append(b, `,"matrix":`...), st.Matrix)
	b = appendString(append(b, `,"solver":`...), st.Solver)
	b = appendString(append(b, `,"plan":`...), st.Plan)
	if st.CacheHit {
		b = append(b, `,"cacheHit":true`...)
	}
	if st.ModelVersion != "" {
		b = appendString(append(b, `,"modelVersion":`...), st.ModelVersion)
	}
	b = strconv.AppendInt(append(b, `,"retunes":`...), st.Retunes, 10)
	b = strconv.AppendInt(append(b, `,"iterations":`...), int64(st.Iterations), 10)
	if b, err = appendFloat(append(b, `,"residual":`...), st.Residual); err != nil {
		return b, err
	}
	b = strconv.AppendBool(append(b, `,"converged":`...), st.Converged)
	b = strconv.AppendBool(append(b, `,"done":`...), st.Done)
	b = strconv.AppendBool(append(b, `,"degraded":`...), st.Degraded)
	if st.DegradedReason != "" {
		b = appendString(append(b, `,"degradedReason":`...), st.DegradedReason)
	}
	b = strconv.AppendInt(append(b, `,"fallbacks":`...), st.Fallbacks, 10)
	if st.Lambda != 0 {
		if b, err = appendFloat(append(b, `,"lambda":`...), st.Lambda); err != nil {
			return b, err
		}
	}
	if st.TraceID != "" {
		b = appendString(append(b, `,"traceId":`...), st.TraceID)
	}
	if len(st.X) > 0 {
		if b, err = appendFloats(append(b, `,"x":`...), st.X); err != nil {
			return b, err
		}
	}
	if len(st.Result) > 0 {
		if b, err = appendFloats(append(b, `,"result":`...), st.Result); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// appendString appends s as a JSON string. A string of printable ASCII
// that encoding/json would not escape is copied between quotes; any other
// goes through json.Marshal, so HTML escaping, control characters and
// invalid UTF-8 come out as encoding/json writes them.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7E || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s)
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// floatsLen bounds the text appendFloats appends for a finite v: each
// float's longest text and its comma, and the brackets.
func floatsLen(v []float64) int { return (atof.MaxLen+1)*len(v) + 2 }

// appendFloats appends v as a JSON array, null when v is nil. It reserves
// floatsLen(v) up front: a response buffer too small for v would otherwise
// regrow by doubling, float by float.
func appendFloats(b []byte, v []float64) ([]byte, error) {
	if v == nil {
		return append(b, "null"...), nil
	}
	b = slices.Grow(b, floatsLen(v))
	b = append(b, '[')
	for i, f := range v {
		if i > 0 {
			b = append(b, ',')
		}
		if f-f != 0 { // NaN or ±Inf
			return appendFloat(b, f)
		}
		b = atof.AppendFloat(b, f)
	}
	return append(b, ']'), nil
}

// appendFloat appends f as encoding/json does, refusing NaN and ±Inf with
// the error encoding/json returns for them.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	return atof.AppendFloat(b, f), nil
}
