package affinityd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"affinityalloc/internal/backoff"
	"affinityalloc/internal/telemetry"
)

// DefaultRequestTimeout bounds a request when the caller's context
// carries no deadline of its own.
const DefaultRequestTimeout = 30 * time.Second

// defaultMaxRetries bounds the retry loop per call.
const defaultMaxRetries = 8

// APIError is a non-2xx wire reply, preserving the status and the
// server's Retry-After hint so the retry loop can honor both.
type APIError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("affinityd: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("affinityd: HTTP %d", e.Status)
}

// Client speaks the affinityd/v1 wire API. Every method takes a
// context carrying the caller's deadline; there is no client-wide
// timeout — each request is bounded by its own context (or
// DefaultRequestTimeout when the context has none), and the remaining
// budget is propagated to the server so it can drop work nobody is
// waiting for.
//
// Idempotent calls (reads, pool opens, alloc/free batches carrying a
// batch ID) are retried on transport errors and 503s with saturating
// exponential backoff and jitter, honoring Retry-After. Batch IDs make
// the retries safe: a batch the server already committed returns its
// original placements instead of allocating twice. Register is never
// retried — it is the one call without an idempotency key.
//
// The Client is safe for concurrent use once configured.
type Client struct {
	base string
	hc   *http.Client

	// Timeout bounds each request when the caller's context has no
	// deadline. Zero means DefaultRequestTimeout.
	Timeout time.Duration
	// Retry is the backoff schedule between retryable failures.
	Retry backoff.Policy
	// MaxRetries bounds retries per call; negative disables retrying.
	MaxRetries int

	retries atomic.Uint64
}

// NewClient returns a client for a server base URL (e.g.
// "http://127.0.0.1:7077") with the default timeout and retry policy.
func NewClient(base string) *Client {
	return &Client{
		base: base,
		// No http.Client.Timeout: deadlines are per-request, from ctx.
		hc:         &http.Client{},
		Timeout:    DefaultRequestTimeout,
		Retry:      backoff.Policy{Base: 25 * time.Millisecond, Cap: 2 * time.Second, Jitter: 0.5},
		MaxRetries: defaultMaxRetries,
	}
}

// Retries returns how many retry attempts this client has made — the
// chaos harness's measure of how much turbulence the stream absorbed.
func (c *Client) Retries() uint64 { return c.retries.Load() }

// Register opens a machine. Not retried: registration has no
// idempotency key, and retrying a reply that was lost in transit would
// open a second machine.
func (c *Client) Register(ctx context.Context, spec MachineSpec) (RegisterResponse, error) {
	var resp RegisterResponse
	err := c.do(ctx, "POST", "/v1/machines", RegisterRequest{Machine: spec}, &resp, false)
	return resp, err
}

// Deregister tears a machine down. Not retried (a lost reply would
// surface as 404 on retry, masking the success).
func (c *Client) Deregister(ctx context.Context, machineID string) error {
	return c.do(ctx, "DELETE", "/v1/machines/"+machineID, nil, nil, false)
}

// MachineInfo fetches a machine's serving state.
func (c *Client) MachineInfo(ctx context.Context, machineID string) (MachineInfoResponse, error) {
	var resp MachineInfoResponse
	err := c.do(ctx, "GET", "/v1/machines/"+machineID, nil, &resp, true)
	return resp, err
}

// OpenPool pre-opens an interleave pool (naturally idempotent: opening
// an open pool is a no-op server-side).
func (c *Client) OpenPool(ctx context.Context, machineID string, interleave int) (OpenPoolResponse, error) {
	var resp OpenPoolResponse
	err := c.do(ctx, "POST", "/v1/machines/"+machineID+"/pools", OpenPoolRequest{Interleave: interleave}, &resp, true)
	return resp, err
}

// Alloc submits a batch of allocation requests. A non-empty batchID is
// the idempotency key that makes retrying safe; with an empty one the
// call is not retried.
func (c *Client) Alloc(ctx context.Context, machineID, batchID string, reqs []AllocRequest) (BatchAllocResponse, error) {
	resp := BatchAllocResponse{Placements: make([]Placement, 0, len(reqs))}
	err := c.do(ctx, "POST", "/v1/machines/"+machineID+"/alloc",
		BatchAllocRequest{BatchID: batchID, Requests: reqs}, &resp, batchID != "")
	return resp, err
}

// Free releases allocations by ID, under the same idempotency contract
// as Alloc.
func (c *Client) Free(ctx context.Context, machineID, batchID string, ids []string) (FreeResponse, error) {
	resp := FreeResponse{Results: make([]FreeResult, 0, len(ids))}
	err := c.do(ctx, "POST", "/v1/machines/"+machineID+"/free",
		FreeRequest{BatchID: batchID, IDs: ids}, &resp, batchID != "")
	return resp, err
}

// Metrics fetches and validates the server's metrics document.
func (c *Client) Metrics(ctx context.Context) (*telemetry.Document, error) {
	var raw json.RawMessage
	if err := c.do(ctx, "GET", "/metricsz", nil, &raw, true); err != nil {
		return nil, err
	}
	return telemetry.ParseDocument(raw)
}

// Healthy reports liveness: the server process answers /healthz.
func (c *Client) Healthy(ctx context.Context) bool {
	return c.probe(ctx, "/healthz")
}

// Ready reports readiness: the server answers /readyz 200, meaning it
// is neither replaying journals nor draining. A daemon can be Healthy
// but not Ready.
func (c *Client) Ready(ctx context.Context) bool {
	return c.probe(ctx, "/readyz")
}

func (c *Client) probe(ctx context.Context, path string) bool {
	err := c.once(ctx, "GET", path, nil, nil)
	return err == nil
}

// bufPool recycles the buffers requests are encoded into and replies
// are read into.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// do is the retry loop around one logical call. Only idempotent calls
// retry, only on retryable failures (transport errors, 503), and the
// delay is the larger of the backoff schedule and the server's
// Retry-After hint.
func (c *Client) do(ctx context.Context, method, path string, body, out any, idempotent bool) error {
	var payload []byte
	released := true // the transport is done reading payload
	if body != nil {
		buf := bufPool.Get().(*bytes.Buffer)
		buf.Reset()
		if err := json.NewEncoder(buf).Encode(body); err != nil {
			bufPool.Put(buf)
			return err
		}
		// Encode ends the payload with a newline json.Marshal does not
		// write; leave it off so the wire bytes stay the same.
		payload = buf.Bytes()[:buf.Len()-1]
		// The buffer goes back to the pool only once the transport is
		// done reading it: every attempt got a reply and had its request
		// body closed. After a transport error net/http may still be
		// reading it (it closes the body on error paths too), so the
		// buffer is dropped instead.
		defer func() {
			if released {
				bufPool.Put(buf)
			}
		}()
	}
	maxRetries := c.MaxRetries
	for attempt := 0; ; attempt++ {
		var rb *requestBody
		if payload != nil {
			rb = &requestBody{}
			rb.Reset(payload)
		}
		err := c.once(ctx, method, path, rb, out)
		var ae *APIError
		replied := err == nil || errors.As(err, &ae)
		if rb != nil && !(replied && rb.closed.Load()) {
			released = false
		}
		if err == nil {
			return nil
		}
		if !idempotent || attempt >= maxRetries || !retryable(err) {
			return err
		}
		delay := c.Retry.Delay(attempt)
		if ae != nil && ae.RetryAfter > delay {
			delay = ae.RetryAfter
		}
		c.retries.Add(1)
		if backoff.Sleep(ctx, delay) != nil {
			return err // deadline beat the backoff; report the real failure
		}
	}
}

// retryable classifies a failure. Context expiry is the caller's
// deadline — never retried. An APIError retries only on 503 (shed,
// replaying, restarting: all explicitly "come back later"). Anything
// else non-wire is a transport error (connection refused mid-restart,
// EOF from a killed daemon) and retries.
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status == http.StatusServiceUnavailable
	}
	return true
}

// requestBody is a request payload that records when the transport
// closes it, which it does once it has finished reading it.
type requestBody struct {
	bytes.Reader
	closed atomic.Bool
}

func (b *requestBody) Close() error {
	b.closed.Store(true)
	return nil
}

// once is a single HTTP round trip: bound the context, propagate the
// deadline budget, classify the reply. body is nil for a request
// without one.
func (c *Client) once(ctx context.Context, method, path string, body *requestBody, out any) error {
	if _, has := ctx.Deadline(); !has {
		timeout := c.Timeout
		if timeout <= 0 {
			timeout = DefaultRequestTimeout
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = body
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.ContentLength = body.Size()
		req.Header.Set("Content-Type", "application/json")
	}
	if deadline, ok := ctx.Deadline(); ok {
		if ms := time.Until(deadline).Milliseconds(); ms > 0 {
			req.Header.Set(deadlineHeader, strconv.FormatInt(ms, 10))
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		// The transport wraps context errors; unwrap so the caller (and
		// the retry classifier) sees the deadline, not a URL error.
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		return err
	}
	defer resp.Body.Close()
	reply := bufPool.Get().(*bytes.Buffer)
	reply.Reset()
	defer bufPool.Put(reply)
	if _, err := reply.ReadFrom(resp.Body); err != nil {
		return err
	}
	data := reply.Bytes()
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode}
		var e ErrorResponse
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			ae.Msg = e.Error
		}
		if v := resp.Header.Get("Retry-After"); v != "" {
			if secs, err := strconv.Atoi(v); err == nil && secs > 0 {
				ae.RetryAfter = time.Duration(secs) * time.Second
			}
		}
		return fmt.Errorf("%s %s: %w", method, path, ae)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}
