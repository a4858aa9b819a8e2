package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"spmvtune/internal/sparse"
)

// client is the generator's side of the socket: one http.Client capped at
// the workload's connection count, plus the byte and failure tallies.
type client struct {
	hc   *http.Client
	base string

	attempted, failed   atomic.Int64 // ops, over the whole run
	reqBytes, respBytes atomic.Int64 // op traffic only, for server.req_bytes

	errMu    sync.Mutex
	firstErr error // the first op failure, for the report
}

// newHTTPClient caps the connections to the daemon: load comes from one
// process over at most conns sockets, and the scrapes between passes reuse
// them.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the body of a 2xx response. Any other
// status, and any transport error, is an error.
func (c *client) do(ctx context.Context, method, path, contentType string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: read response: %w", method, path, err)
	}
	c.reqBytes.Add(int64(len(body)))
	c.respBytes.Add(int64(len(out)))
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, out)
	}
	return out, nil
}

func (c *client) postJSON(ctx context.Context, path string, body []byte, into any) error {
	out, err := c.do(ctx, http.MethodPost, path, "application/json", body)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(out, into); err != nil {
		return fmt.Errorf("POST %s: decode response: %w", path, err)
	}
	return nil
}

// scrape reads /metrics. It is only called between passes, when no op is
// in flight, so deltas of two scrapes cover whole ops.
func (c *client) scrape(ctx context.Context) (metricsText, error) {
	out, err := c.do(ctx, http.MethodGet, "/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	return parseMetrics(string(out))
}

// record counts one finished op; a failed one keeps its error for the
// report.
func (c *client) record(err error) {
	c.attempted.Add(1)
	if err == nil {
		return
	}
	c.failed.Add(1)
	c.errMu.Lock()
	if c.firstErr == nil {
		c.firstErr = err
	}
	c.errMu.Unlock()
}

// upload posts a Matrix Market body and returns the matrix id.
func (c *client) upload(ctx context.Context, mtx []byte) (string, error) {
	var resp struct {
		ID string `json:"id"`
	}
	out, err := c.do(ctx, http.MethodPost, "/v1/matrices", "text/plain", mtx)
	if err != nil {
		return "", err
	}
	if err := json.Unmarshal(out, &resp); err != nil || resp.ID == "" {
		return "", fmt.Errorf("upload: bad response %.200s", out)
	}
	return resp.ID, nil
}

// spmvReply is the part of the /v1/spmv response the generator checks.
type spmvReply struct {
	Result    []float64   `json:"result"`
	Results   [][]float64 `json:"results"`
	CacheHit  bool        `json:"cacheHit"`
	Degraded  bool        `json:"degraded"`
	Fallbacks int         `json:"fallbacks"`
}

// spmv sends one /v1/spmv request and verifies every result vector against
// the reference product at the server's own tolerance. A wrong answer is a
// failed op.
func (c *client) spmv(ctx context.Context, in *opInput) (*spmvReply, error) {
	var rep spmvReply
	if err := c.postJSON(ctx, "/v1/spmv", in.body, &rep); err != nil {
		return nil, err
	}
	got := rep.Results
	if len(in.vecs) == 1 {
		got = [][]float64{rep.Result}
	}
	if len(got) != len(in.refs) {
		return nil, fmt.Errorf("spmv: %d result vectors, want %d", len(got), len(in.refs))
	}
	for k := range got {
		if i := sparse.FirstVecDiff(got[k], in.refs[k], verifyTol); i >= 0 {
			return nil, fmt.Errorf("spmv: result %d differs from the reference at row %d", k, i)
		}
	}
	return &rep, nil
}

// sessionReply is the part of a solver session's status the generator
// checks.
type sessionReply struct {
	Session    string    `json:"session"`
	Iterations int       `json:"iterations"`
	Converged  bool      `json:"converged"`
	Done       bool      `json:"done"`
	X          []float64 `json:"x"`
}

func (c *client) createSession(ctx context.Context, matrix string, s *solveInput) (string, error) {
	body := []byte(fmt.Sprintf(`{"matrix":%q,"solver":"cg","tol":%g,"maxIterations":%d,"b":%s}`,
		matrix, solveTol, solveMaxIter, s.bJSON))
	var rep sessionReply
	if err := c.postJSON(ctx, "/v1/solve", body, &rep); err != nil {
		return "", err
	}
	if rep.Session == "" {
		return "", fmt.Errorf("create session: empty session id")
	}
	return rep.Session, nil
}

var iterateBody = []byte(fmt.Sprintf(`{"steps":%d}`, solveSteps))

func (c *client) iterate(ctx context.Context, session string) (*sessionReply, error) {
	var rep sessionReply
	if err := c.postJSON(ctx, "/v1/solve/"+session+"/iterate", iterateBody, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// checkSolved verifies a finished CG session: converged, in exactly the
// iterations the in-process solver needs on the same system, and with a
// true residual ‖Ax−b‖/‖b‖ that the returned x really attains.
func checkSolved(a *sparse.CSR, s *solveInput, rep *sessionReply) error {
	if !rep.Converged {
		return fmt.Errorf("solve: session %s finished without converging after %d iterations", rep.Session, rep.Iterations)
	}
	if rep.Iterations != s.wantIter {
		return fmt.Errorf("solve: session %s took %d iterations, in-process CG takes %d", rep.Session, rep.Iterations, s.wantIter)
	}
	if len(rep.X) != a.Cols {
		return fmt.Errorf("solve: session %s returned x of length %d, want %d", rep.Session, len(rep.X), a.Cols)
	}
	if r := relResidual(a, rep.X, s.b); !(r <= 1e-6) {
		return fmt.Errorf("solve: session %s has true residual %g > 1e-6", rep.Session, r)
	}
	return nil
}

// relResidual is ‖Ax−b‖₂ / ‖b‖₂.
func relResidual(a *sparse.CSR, x, b []float64) float64 {
	ax := make([]float64, a.Rows)
	a.MulVec(x, ax)
	var rr, bb float64
	for i := range b {
		d := ax[i] - b[i]
		rr += d * d
		bb += b[i] * b[i]
	}
	return math.Sqrt(rr / bb)
}
