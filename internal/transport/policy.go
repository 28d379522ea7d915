package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"gospaces/internal/metrics"
	"gospaces/internal/qos"
)

// RetryPolicy controls the Retrying wrapper: exponential backoff with
// jitter, a per-call attempt cap, and an optional client-wide retry
// budget that bounds total retry work under sustained faults (a storm
// of retries against a dead group must not multiply load forever).
type RetryPolicy struct {
	// MaxAttempts is the per-call attempt cap, including the first try
	// (minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further
	// retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth.
	MaxDelay time.Duration
	// Jitter is the fraction (0..1) of each delay randomized away, so
	// synchronized ranks don't retry in lockstep.
	Jitter float64
	// Budget, when positive, caps the total retries a Retrying instance
	// may spend across all calls and connections; once spent, calls fail
	// fast on the first error.
	Budget int64
	// Seed makes the jitter sequence deterministic for tests (0 seeds
	// from a fixed default).
	Seed int64
}

// DefaultRetryPolicy matches the staging defaults documented in
// DESIGN.md §6: 4 attempts, 50ms base, 2s cap, 20% jitter.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second, Jitter: 0.2}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay < p.BaseDelay {
		p.MaxDelay = p.BaseDelay
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.Jitter > 1 {
		p.Jitter = 1
	}
	return p
}

// Retrying wraps a Transport with the retry policy: Dial and Call
// retry transient faults (see Retryable) with exponential backoff and
// report their work in a metrics registry. Terminal errors — handler
// errors, ErrClosed — pass through on the first attempt.
type Retrying struct {
	inner Transport
	pol   RetryPolicy
	reg   *metrics.Registry

	// done is closed by Close: callers sleeping in a retry backoff wake
	// immediately and fail with ErrClosed instead of continuing to retry
	// against shut-down resources.
	done      chan struct{}
	closeOnce sync.Once

	mu     sync.Mutex
	rng    *rand.Rand
	budget int64 // remaining retries when pol.Budget > 0
}

// WithRetry wraps inner in the retry policy layer.
func WithRetry(inner Transport, pol RetryPolicy) *Retrying {
	pol = pol.withDefaults()
	seed := pol.Seed
	if seed == 0 {
		seed = 1
	}
	return &Retrying{
		inner:  inner,
		pol:    pol,
		reg:    metrics.NewRegistry(),
		done:   make(chan struct{}),
		rng:    rand.New(rand.NewSource(seed)),
		budget: pol.Budget,
	}
}

// Close shuts the policy layer down: any caller sleeping in a retry
// backoff is woken and fails with ErrClosed. The inner transport is not
// closed (it may be shared); Close is idempotent.
func (r *Retrying) Close() error {
	r.closeOnce.Do(func() { close(r.done) })
	return nil
}

// Unwrap returns the wrapped transport.
func (r *Retrying) Unwrap() Transport { return r.inner }

// Metrics returns the registry recording rpc.calls, rpc.retries,
// rpc.timeouts, rpc.exhausted, rpc.budget_denied, and rpc.overloaded
// counters.
func (r *Retrying) Metrics() *metrics.Registry { return r.reg }

// Listen implements Transport, passing straight through: the policy
// layer shapes the client side only.
func (r *Retrying) Listen(addr string, h Handler) (io.Closer, error) {
	return r.inner.Listen(addr, h)
}

// delay computes the jittered backoff before retry number n (0-based).
func (r *Retrying) delay(n int) time.Duration {
	d := r.pol.BaseDelay << uint(n)
	if d > r.pol.MaxDelay || d <= 0 { // <=0 guards shift overflow
		d = r.pol.MaxDelay
	}
	if r.pol.Jitter > 0 {
		r.mu.Lock()
		f := 1 - r.pol.Jitter*r.rng.Float64()
		r.mu.Unlock()
		d = time.Duration(float64(d) * f)
	}
	return d
}

// spendRetryN consumes n units of the retry budget; false means the
// budget is exhausted and the caller must fail fast. A plain backoff
// retry costs one unit; a server-directed retry-after wait costs
// ceil(wait/MaxDelay) units (minimum one), so honoring overload hints
// draws down the same budget as backoff sleeps and total stall time
// stays bounded by Budget×MaxDelay — a server advertising long
// retry-after under sustained overload cannot stall clients forever.
func (r *Retrying) spendRetryN(n int64) bool {
	if r.pol.Budget <= 0 {
		return true
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.budget < n {
		return false
	}
	r.budget -= n
	return true
}

// retryAfterUnits converts a server-directed wait into retry-budget
// units: ceil(wait/MaxDelay), minimum one.
func (r *Retrying) retryAfterUnits(wait time.Duration) int64 {
	if r.pol.MaxDelay <= 0 {
		return 1
	}
	u := int64((wait + r.pol.MaxDelay - 1) / r.pol.MaxDelay)
	if u < 1 {
		u = 1
	}
	return u
}

// retryAfterDelay jitters a server-directed wait upward by up to the
// policy's jitter fraction, so a cohort of shed clients does not
// return in lockstep exactly when the server said.
func (r *Retrying) retryAfterDelay(hint time.Duration) time.Duration {
	if r.pol.Jitter <= 0 {
		return hint
	}
	r.mu.Lock()
	f := 1 + r.pol.Jitter*r.rng.Float64()
	r.mu.Unlock()
	return time.Duration(float64(hint) * f)
}

// retry runs op up to MaxAttempts times, backing off between attempts.
// The backoff is interruptible: closing the Retrying layer or the stop
// channel (a per-client close; nil is allowed) wakes the sleeper and
// fails the call with ErrClosed.
func (r *Retrying) retry(what string, stop <-chan struct{}, op func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		err = op()
		if err == nil {
			return nil
		}
		// Typed backpressure: an overloaded server directs when to come
		// back. The hint is honored (jittered upward) instead of blind
		// exponential backoff, and the wait is charged against the retry
		// budget in MaxDelay-sized units so long hints draw it down
		// proportionally. Over TCP the rejection arrives as the typed
		// cause of a RemoteError, which FromError sees through.
		wait := r.delay(attempt)
		units := int64(1)
		if ov, ok := qos.FromError(err); ok {
			if hint := ov.RetryAfter; hint > 0 {
				wait = r.retryAfterDelay(hint)
				units = r.retryAfterUnits(wait)
			}
			r.reg.Counter("rpc.overloaded").Inc()
		} else if !Retryable(err) {
			return err
		}
		if isTimeout(err) {
			r.reg.Counter("rpc.timeouts").Inc()
		}
		if attempt+1 >= r.pol.MaxAttempts {
			r.reg.Counter("rpc.exhausted").Inc()
			return fmt.Errorf("transport: %s failed after %d attempts: %w", what, attempt+1, err)
		}
		if !r.spendRetryN(units) {
			r.reg.Counter("rpc.budget_denied").Inc()
			return fmt.Errorf("transport: %s: retry budget exhausted: %w", what, err)
		}
		r.reg.Counter("rpc.retries").Inc()
		timer := ClockOf(r.inner).NewTimer(wait)
		select {
		case <-timer.C:
		case <-r.done:
			timer.Stop()
			return fmt.Errorf("transport: %s: %w during retry backoff (last error: %v)", what, ErrClosed, err)
		case <-stop:
			timer.Stop()
			return fmt.Errorf("transport: %s: %w during retry backoff (last error: %v)", what, ErrClosed, err)
		}
	}
}

func isTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// Dial implements Transport: connection establishment retries transient
// dial failures (a server mid-restart refuses connections briefly).
func (r *Retrying) Dial(addr string) (Client, error) {
	var c Client
	err := r.retry("dial "+addr, nil, func() error {
		var e error
		c, e = r.inner.Dial(addr)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &retryClient{r: r, addr: addr, inner: c, done: make(chan struct{})}, nil
}

type retryClient struct {
	r         *Retrying
	addr      string
	inner     Client
	done      chan struct{}
	closeOnce sync.Once
}

func (c *retryClient) Call(req any) (any, error) {
	c.r.reg.Counter("rpc.calls").Inc()
	var resp any
	err := c.r.retry("call "+c.addr, c.done, func() error {
		var e error
		resp, e = c.inner.Call(req)
		return e
	})
	return resp, err
}

func (c *retryClient) Close() error {
	c.closeOnce.Do(func() { close(c.done) })
	return c.inner.Close()
}
