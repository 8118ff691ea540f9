package affinityd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastRetry is a test retry policy with no meaningful sleep.
var fastRetry = func(c *Client) *Client {
	c.Retry.Base = time.Millisecond
	c.Retry.Cap = 2 * time.Millisecond
	return c
}

// TestClientRetriesIdempotentOn503 pins the retry loop: a 503 on an
// idempotent call (an alloc carrying a batch ID) is retried until it
// succeeds; the same 503 on an alloc without a batch ID is not.
func TestClientRetriesIdempotentOn503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "shed"})
			return
		}
		writeJSON(w, http.StatusOK, BatchAllocResponse{Version: APIVersion})
	}))
	defer ts.Close()

	client := fastRetry(NewClient(ts.URL))
	if _, err := client.Alloc(bg, "m000001", "batch-1", []AllocRequest{{ID: "a"}}); err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d calls, want 3 (two 503s then success)", got)
	}
	if got := client.Retries(); got != 2 {
		t.Errorf("client counted %d retries, want 2", got)
	}

	// No batch ID = not idempotent = the 503 surfaces immediately.
	calls.Store(0)
	var ae *APIError
	if _, err := client.Alloc(bg, "m000001", "", []AllocRequest{{ID: "a"}}); !errors.As(err, &ae) || ae.Status != 503 {
		t.Fatalf("got %v, want the raw 503", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("non-idempotent alloc was sent %d times, want 1", got)
	}
}

// TestClientRegisterNeverRetried pins that Register — the one call
// without an idempotency key — is not retried even on a retryable
// status: a lost reply must not open a second machine.
func TestClientRegisterNeverRetried(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "not now"})
	}))
	defer ts.Close()

	client := fastRetry(NewClient(ts.URL))
	if _, err := client.Register(bg, MachineSpec{}); err == nil {
		t.Fatal("register against a 503 server succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("register was sent %d times, want exactly 1", got)
	}
}

// TestClientParsesRetryAfter pins that the server's Retry-After hint
// survives into the typed error the retry loop (and callers) see.
func TestClientParsesRetryAfter(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Retry-After", "3")
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "replaying"})
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.MaxRetries = -1
	var ae *APIError
	if _, err := client.MachineInfo(bg, "m000001"); !errors.As(err, &ae) {
		t.Fatalf("got %v, want *APIError", err)
	}
	if ae.Status != 503 || ae.RetryAfter != 3*time.Second {
		t.Errorf("APIError = %+v, want status 503, RetryAfter 3s", ae)
	}
}

// TestClientPropagatesDeadline pins deadline propagation: the remaining
// context budget rides the wire as a millisecond header, and with no
// caller deadline the client's default applies — never an unbounded
// request.
func TestClientPropagatesDeadline(t *testing.T) {
	var gotMs atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ms, _ := strconv.ParseInt(r.Header.Get(deadlineHeader), 10, 64)
		gotMs.Store(ms)
		writeJSON(w, http.StatusOK, MachineInfoResponse{Version: APIVersion})
	}))
	defer ts.Close()
	client := NewClient(ts.URL)

	ctx, cancel := context.WithTimeout(bg, 500*time.Millisecond)
	defer cancel()
	if _, err := client.MachineInfo(ctx, "m000001"); err != nil {
		t.Fatal(err)
	}
	if ms := gotMs.Load(); ms <= 0 || ms > 500 {
		t.Errorf("propagated %dms, want (0, 500]", ms)
	}

	// No caller deadline: the client default bounds the request.
	if _, err := client.MachineInfo(bg, "m000001"); err != nil {
		t.Fatal(err)
	}
	if ms := gotMs.Load(); ms <= 0 || ms > DefaultRequestTimeout.Milliseconds() {
		t.Errorf("default deadline propagated %dms, want (0, %d]", ms, DefaultRequestTimeout.Milliseconds())
	}
}

// TestClientRetriesTransportErrors pins failover across a dead daemon:
// connection-level failures retry (bounded by MaxRetries) instead of
// surfacing the first refused connection.
func TestClientRetriesTransportErrors(t *testing.T) {
	// A listener that was closed: every connection is refused.
	ts := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	ts.Close()

	client := fastRetry(NewClient(ts.URL))
	client.MaxRetries = 2
	if _, err := client.MachineInfo(bg, "m000001"); err == nil {
		t.Fatal("request against a dead server succeeded")
	}
	if got := client.Retries(); got != 2 {
		t.Errorf("client made %d retries, want 2", got)
	}
}

// TestClientDeadlineBeatsRetry pins that an expired caller context ends
// the retry loop with the context error, not an endless backoff.
func TestClientDeadlineBeatsRetry(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: "shed"})
	}))
	defer ts.Close()

	client := NewClient(ts.URL)
	client.Retry.Base = 50 * time.Millisecond
	ctx, cancel := context.WithTimeout(bg, 60*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.MachineInfo(ctx, "m000001")
	if err == nil {
		t.Fatal("call against a permanently shedding server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("retry loop ran %v past the 60ms deadline", elapsed)
	}
}

// TestClientRequestBodiesIntact pins the pooled request and reply
// buffers: the wire bytes are json.Marshal's, a retry after a dropped
// connection resends them intact, and concurrent calls never see each
// other's payloads or replies.
func TestClientRequestBodiesIntact(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			return
		}
		if calls.Add(1)%5 == 1 {
			// Drop the connection without a reply: a transport error.
			if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
				conn.Close()
			}
			return
		}
		var req BatchAllocRequest
		if err := json.Unmarshal(body, &req); err != nil {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
			return
		}
		if want, _ := json.Marshal(req); !bytes.Equal(body, want) {
			writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: fmt.Sprintf("body %q, want %q", body, want)})
			return
		}
		resp := BatchAllocResponse{Version: APIVersion}
		for _, rq := range req.Requests {
			resp.Placements = append(resp.Placements, Placement{ID: rq.ID, NumElem: rq.NumElem})
		}
		writeJSON(w, http.StatusOK, resp)
	}))
	defer ts.Close()

	client := fastRetry(NewClient(ts.URL))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				reqs := make([]AllocRequest, 1+(g+i)%7)
				for k := range reqs {
					reqs[k] = AllocRequest{ID: fmt.Sprintf("g%d-%d-%d", g, i, k), ElemSize: 4, NumElem: int64(100*g + i)}
				}
				resp, err := client.Alloc(bg, "m000001", fmt.Sprintf("b%d-%d", g, i), reqs)
				if err != nil {
					t.Errorf("alloc g%d/%d: %v", g, i, err)
					return
				}
				if len(resp.Placements) != len(reqs) {
					t.Errorf("alloc g%d/%d: %d placements, want %d", g, i, len(resp.Placements), len(reqs))
					return
				}
				for k, pl := range resp.Placements {
					if pl.ID != reqs[k].ID || pl.NumElem != reqs[k].NumElem {
						t.Errorf("alloc g%d/%d: placement %d is %s/%d, want %s/%d", g, i, k, pl.ID, pl.NumElem, reqs[k].ID, reqs[k].NumElem)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if client.Retries() == 0 {
		t.Error("no call was retried; the dropped connections were not exercised")
	}
}
