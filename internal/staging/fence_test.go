package staging

import (
	"errors"
	"testing"
	"time"

	"gospaces/internal/health"
)

// White-box tests for the server-side half of recovery-leader
// election: the lease CAS, the fencing admit check, and the promotion
// intent journal.

// propose runs one lease CAS and returns the record the server answers
// it with (its PingResp's Lease).
func propose(l *leaseState, r LeaseCASReq, now time.Time) health.Lease {
	l.cas(r, now)
	return l.record(now)
}

func TestLeaseCASGrantAndRefuse(t *testing.T) {
	var l leaseState
	now := time.Now()
	ttl := 100 * time.Millisecond

	r := propose(&l, LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now)
	if !r.Grants("a", 1) || r.Holder != "a" || r.Token != 1 || r.ExpiresIn != ttl {
		t.Fatalf("fresh grant = %+v", r)
	}

	// Held by a: a competing holder is refused regardless of token.
	r = propose(&l, LeaseCASReq{Holder: "b", Token: 9, TTL: ttl}, now.Add(10*time.Millisecond))
	if r.Grants("b", 9) {
		t.Fatalf("competing grant while held = %+v", r)
	}
	if r.Holder != "a" || r.Fence != 1 {
		t.Fatalf("refusal snapshot = %+v", r)
	}

	// The holder renews under the same token, extending the lease.
	r = propose(&l, LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now.Add(50*time.Millisecond))
	if !r.Grants("a", 1) {
		t.Fatalf("renewal = %+v", r)
	}

	// Expired: a new holder wins, but only above the high-water mark.
	late := now.Add(200 * time.Millisecond)
	r = propose(&l, LeaseCASReq{Holder: "b", Token: 0, TTL: ttl}, late)
	if r.Grants("b", 0) {
		t.Fatalf("stale-token grant after expiry = %+v", r)
	}
	r = propose(&l, LeaseCASReq{Holder: "b", Token: r.Fence + 1, TTL: ttl}, late)
	if !r.Grants("b", 2) || r.Holder != "b" {
		t.Fatalf("post-expiry grant = %+v", r)
	}
}

// TestRenewalBehindFenceIsNoGrant: a newer leader's fenced call raised
// the fence past the holder's token. The holder's renewal is refused,
// and although the record still names the holder and its token, it
// reads as no grant.
func TestRenewalBehindFenceIsNoGrant(t *testing.T) {
	var l leaseState
	now := time.Now()
	if r := propose(&l, LeaseCASReq{Holder: "a", Token: 3, TTL: time.Minute}, now); !r.Grants("a", 3) {
		t.Fatalf("grant = %+v", r)
	}
	if err := l.admit(7); err != nil {
		t.Fatal(err)
	}
	r := propose(&l, LeaseCASReq{Holder: "a", Token: 3, TTL: time.Minute}, now)
	if r.Holder != "a" || r.Token != 3 || r.Fence != 7 {
		t.Fatalf("record after the refused renewal = %+v, want a's under token 3 behind fence 7", r)
	}
	if r.Grants("a", 3) {
		t.Fatalf("renewal behind fence 7 reads as a grant: %+v", r)
	}
	// Past the fence, the same holder is granted again.
	if r := propose(&l, LeaseCASReq{Holder: "a", Token: 8, TTL: time.Minute}, now); !r.Grants("a", 8) {
		t.Fatalf("proposal past the fence = %+v", r)
	}
}

func TestLeaseCASRelease(t *testing.T) {
	var l leaseState
	now := time.Now()
	ttl := time.Minute
	if r := propose(&l, LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now); !r.Grants("a", 1) {
		t.Fatalf("grant = %+v", r)
	}

	// Someone else's release is a no-op.
	l.cas(LeaseCASReq{Holder: "b", Release: true}, now)
	if r := propose(&l, LeaseCASReq{Holder: "b", Token: 2, TTL: ttl}, now); r.Grants("b", 2) {
		t.Fatalf("grant after foreign release = %+v (lease should still be held by a)", r)
	}

	// The holder's release frees the record immediately — no TTL wait —
	// so a competing candidate wins the next round.
	l.cas(LeaseCASReq{Holder: "a", Release: true}, now)
	r := propose(&l, LeaseCASReq{Holder: "b", Token: 2, TTL: ttl}, now)
	if !r.Grants("b", 2) || r.Holder != "b" {
		t.Fatalf("grant after release = %+v", r)
	}
}

func TestLeaseFenceMonotonic(t *testing.T) {
	var l leaseState
	now := time.Now()
	l.cas(LeaseCASReq{Holder: "a", Token: 3, TTL: time.Minute}, now)

	// The grant raised the fence: older tokens are rejected, the
	// granted token itself is admitted.
	if err := l.admit(2); !health.IsFenced(err) {
		t.Fatalf("admit(2) = %v, want fencing rejection", err)
	}
	if err := l.admit(3); err != nil {
		t.Fatalf("admit(3) = %v", err)
	}

	// Admitting a newer token raises the fence even without a grant.
	if err := l.admit(7); err != nil {
		t.Fatalf("admit(7) = %v", err)
	}
	if err := l.admit(6); !health.IsFenced(err) {
		t.Fatalf("admit(6) after fence 7 = %v", err)
	}

	// A release keeps the fence: a deposed holder cannot sneak back in
	// by releasing and replaying an old token.
	l.cas(LeaseCASReq{Holder: "a", Release: true}, now)
	if err := l.admit(5); !health.IsFenced(err) {
		t.Fatalf("admit(5) after release = %v, want fencing rejection", err)
	}

	var fe *health.FencedError
	err := l.admit(1)
	if !errors.As(err, &fe) || fe.Token != 1 || fe.Fence != 7 {
		t.Fatalf("typed rejection = %v", err)
	}
	// Only the type counts (it crosses the wire as a typed cause, see
	// TestTypedErrorsOverTCP), not text that reads like it.
	if health.IsFenced(errors.New(err.Error())) {
		t.Fatalf("string look-alike recognized as a fencing rejection: %q", err.Error())
	}
}

func TestIntentJournal(t *testing.T) {
	var l leaseState
	now := time.Now()

	l.putIntent(health.Intent{Slot: 1, DeadAddr: "d", Spare: "s1", Token: 2})
	// A lower-token write (a deposed leader racing) never clobbers.
	l.putIntent(health.Intent{Slot: 1, DeadAddr: "d", Spare: "s0", Token: 1})
	// The new leader's re-journal (same or higher token) wins.
	l.putIntent(health.Intent{Slot: 1, DeadAddr: "d", Spare: "s1", Token: 5})
	l.putIntent(health.Intent{Slot: 3, DeadAddr: "e", Spare: "s2", Token: 4})

	info := l.record(now)
	if len(info.Intents) != 2 {
		t.Fatalf("intents = %+v", info.Intents)
	}
	for _, in := range info.Intents {
		if in.Slot == 1 && (in.Spare != "s1" || in.Token != 5) {
			t.Fatalf("slot 1 intent = %+v", in)
		}
	}

	l.clearIntent(1)
	info = l.record(now)
	if len(info.Intents) != 1 || info.Intents[0].Slot != 3 {
		t.Fatalf("intents after clear = %+v", info.Intents)
	}
}
