package transport

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/qos"
)

// overloadHandler rejects the first n calls with a typed overload
// rejection carrying hint (wrapped, the way the staging server returns
// it, when wrap is set), then succeeds.
func overloadHandler(n int64, hint time.Duration, wrap bool) (Handler, *atomic.Int64) {
	var calls atomic.Int64
	h := func(req any) (any, error) {
		if calls.Add(1) <= n {
			e := &qos.ErrOverloaded{Tenant: "lo", Resource: qos.ResourceStaging, RetryAfter: hint}
			if wrap {
				return nil, fmt.Errorf("staging put: %w", e)
			}
			return nil, e
		}
		return "ok", nil
	}
	return h, &calls
}

func dialRetrying(t *testing.T, pol RetryPolicy, h Handler) (*Retrying, Client) {
	t.Helper()
	inner := NewInProc()
	if _, err := inner.Listen("srv", h); err != nil {
		t.Fatal(err)
	}
	r := WithRetry(inner, pol)
	t.Cleanup(func() { r.Close() })
	c, err := r.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	return r, c
}

func TestRetryHonorsRetryAfterHint(t *testing.T) {
	const hint = 30 * time.Millisecond
	h, calls := overloadHandler(2, hint, false)
	r, c := dialRetrying(t, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Jitter: 0.2, Seed: 7}, h)

	start := time.Now()
	resp, err := c.Call("put")
	elapsed := time.Since(start)
	if err != nil || resp != "ok" {
		t.Fatalf("call = %v, %v", resp, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("handler saw %d calls, want 3", calls.Load())
	}
	// Two waits at the server's hint (jitter only extends them) —
	// far beyond the 5ms backoff cap the policy would use on its own.
	if elapsed < 2*hint {
		t.Fatalf("waited %v, want >= %v (hint not honored)", elapsed, 2*hint)
	}
	if got := r.Metrics().Counter("rpc.overloaded").Value(); got != 2 {
		t.Fatalf("rpc.overloaded = %d, want 2", got)
	}
	if got := r.Metrics().Counter("rpc.retries").Value(); got != 2 {
		t.Fatalf("rpc.retries = %d, want 2", got)
	}
}

// TestRetryAfterSurvivesRemoteErrorWire sends the rejection over
// loopback TCP: it arrives as a RemoteError whose message is the
// handler's text byte for byte and whose cause is the decoded
// ErrOverloaded, fields intact — terminal to Retryable, yet honoured by
// the retry layer for exactly the hint it carries.
func TestRetryAfterSurvivesRemoteErrorWire(t *testing.T) {
	const hint = 30 * time.Millisecond
	h, calls := overloadHandler(1, hint, true)
	tcp := NewTCPTimeout(5*time.Second, time.Second)
	ep, err := tcp.ListenTCP("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	raw, err := tcp.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	_, err = raw.Call("put")
	raw.Close()
	want := &qos.ErrOverloaded{Tenant: "lo", Resource: qos.ResourceStaging, RetryAfter: hint}
	var re *RemoteError
	if !errors.As(err, &re) || re.Msg != "staging put: "+want.Error() {
		t.Fatalf("err = %#v, want a RemoteError with the handler's text", err)
	}
	if ov, ok := qos.FromError(err); !ok || *ov != *want {
		t.Fatalf("FromError(%v) = %+v, %v; want %+v", err, ov, ok, want)
	}
	if Retryable(err) {
		t.Fatal("a delivered rejection must stay terminal to Retryable")
	}

	r := WithRetry(tcp, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 7})
	defer r.Close()
	c, err := r.Dial(ep.Addr())
	if err != nil {
		t.Fatal(err)
	}
	calls.Store(0)
	start := time.Now()
	if resp, err := c.Call("put"); err != nil || resp != "ok" {
		t.Fatalf("call through a wire-typed rejection = %v, %v", resp, err)
	}
	if elapsed := time.Since(start); elapsed < hint {
		t.Fatalf("retried after %v, want >= the %v hint", elapsed, hint)
	}
	if calls.Load() != 2 {
		t.Fatalf("handler saw %d calls, want 2", calls.Load())
	}
}

func TestRetryAfterChargedAgainstBudget(t *testing.T) {
	// MaxDelay 10ms, hint 45ms → ceil(45/10) = 5 units > budget 3: the
	// wait may not even start; the call fails fast with budget denial.
	h, calls := overloadHandler(10, 45*time.Millisecond, false)
	r, c := dialRetrying(t, RetryPolicy{MaxAttempts: 6, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond, Budget: 3, Seed: 7}, h)

	start := time.Now()
	_, err := c.Call("put")
	elapsed := time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler saw %d calls, want 1 (no retries affordable)", calls.Load())
	}
	// The denied wait was never slept: total stall stays bounded.
	if elapsed > 30*time.Millisecond {
		t.Fatalf("budget-denied call stalled %v", elapsed)
	}
	if got := r.Metrics().Counter("rpc.budget_denied").Value(); got != 1 {
		t.Fatalf("rpc.budget_denied = %d, want 1", got)
	}

	// The typed rejection is still recoverable from the wrapped error.
	if ov, ok := qos.FromError(err); !ok || ov.Tenant != "lo" {
		t.Fatalf("FromError(%v) = %+v, %v", err, ov, ok)
	}
}

func TestRetryAfterExhaustsAttempts(t *testing.T) {
	h, _ := overloadHandler(100, time.Millisecond, false)
	_, c := dialRetrying(t, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 7}, h)
	_, err := c.Call("put")
	if err == nil || !strings.Contains(err.Error(), "failed after 3 attempts") {
		t.Fatalf("err = %v, want attempt exhaustion", err)
	}
	var ov *qos.ErrOverloaded
	if !errors.As(err, &ov) {
		t.Fatalf("attempt-exhausted error lost the typed cause: %v", err)
	}
}

func TestNonOverloadHandlerErrorsStayTerminal(t *testing.T) {
	var calls atomic.Int64
	h := func(req any) (any, error) {
		calls.Add(1)
		return nil, errors.New("validation failed")
	}
	_, c := dialRetrying(t, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond, Seed: 7}, h)
	if _, err := c.Call("put"); err == nil {
		t.Fatal("expected handler error")
	}
	if calls.Load() != 1 {
		t.Fatalf("terminal handler error retried: %d calls", calls.Load())
	}
}
