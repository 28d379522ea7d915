package staging

import (
	"errors"
	"testing"
	"time"
)

// White-box tests for the server-side half of recovery-leader
// election: the lease CAS, the fencing admit check, and the promotion
// intent journal.

func TestLeaseCASGrantAndRefuse(t *testing.T) {
	var l leaseState
	now := time.Now()
	ttl := 100 * time.Millisecond

	r := l.cas(LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now)
	if !r.Granted || r.Holder != "a" || r.Token != 1 {
		t.Fatalf("fresh grant = %+v", r)
	}

	// Held by a: a competing holder is refused regardless of token.
	r = l.cas(LeaseCASReq{Holder: "b", Token: 9, TTL: ttl}, now.Add(10*time.Millisecond))
	if r.Granted {
		t.Fatalf("competing grant while held = %+v", r)
	}
	if r.Holder != "a" || r.MaxToken != 1 {
		t.Fatalf("refusal snapshot = %+v", r)
	}

	// The holder renews under the same token, extending the lease.
	r = l.cas(LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now.Add(50*time.Millisecond))
	if !r.Granted {
		t.Fatalf("renewal = %+v", r)
	}

	// Expired: a new holder wins, but only above the high-water mark.
	late := now.Add(200 * time.Millisecond)
	r = l.cas(LeaseCASReq{Holder: "b", Token: 0, TTL: ttl}, late)
	if r.Granted {
		t.Fatalf("stale-token grant after expiry = %+v", r)
	}
	r = l.cas(LeaseCASReq{Holder: "b", Token: r.MaxToken + 1, TTL: ttl}, late)
	if !r.Granted || r.Holder != "b" {
		t.Fatalf("post-expiry grant = %+v", r)
	}
}

func TestLeaseCASRelease(t *testing.T) {
	var l leaseState
	now := time.Now()
	ttl := time.Minute
	if r := l.cas(LeaseCASReq{Holder: "a", Token: 1, TTL: ttl}, now); !r.Granted {
		t.Fatalf("grant = %+v", r)
	}

	// Someone else's release is a no-op.
	l.cas(LeaseCASReq{Holder: "b", Release: true}, now)
	if r := l.cas(LeaseCASReq{Holder: "b", Token: 2, TTL: ttl}, now); r.Granted {
		t.Fatalf("grant after foreign release = %+v (lease should still be held by a)", r)
	}

	// The holder's release frees the record immediately — no TTL wait —
	// so a competing candidate wins the next round.
	l.cas(LeaseCASReq{Holder: "a", Release: true}, now)
	r := l.cas(LeaseCASReq{Holder: "b", Token: 2, TTL: ttl}, now)
	if !r.Granted || r.Holder != "b" {
		t.Fatalf("grant after release = %+v", r)
	}
}

func TestLeaseFenceMonotonic(t *testing.T) {
	var l leaseState
	now := time.Now()
	l.cas(LeaseCASReq{Holder: "a", Token: 3, TTL: time.Minute}, now)

	// The grant raised the fence: older tokens are rejected, the
	// granted token itself is admitted.
	if err := l.admit(2); !IsFenced(err) {
		t.Fatalf("admit(2) = %v, want fencing rejection", err)
	}
	if err := l.admit(3); err != nil {
		t.Fatalf("admit(3) = %v", err)
	}

	// Admitting a newer token raises the fence even without a grant.
	if err := l.admit(7); err != nil {
		t.Fatalf("admit(7) = %v", err)
	}
	if err := l.admit(6); !IsFenced(err) {
		t.Fatalf("admit(6) after fence 7 = %v", err)
	}

	// A release keeps the fence: a deposed holder cannot sneak back in
	// by releasing and replaying an old token.
	l.cas(LeaseCASReq{Holder: "a", Release: true}, now)
	if err := l.admit(5); !IsFenced(err) {
		t.Fatalf("admit(5) after release = %v, want fencing rejection", err)
	}

	var fe *FencedError
	err := l.admit(1)
	if !errors.As(err, &fe) || fe.Token != 1 || fe.Fence != 7 {
		t.Fatalf("typed rejection = %v", err)
	}
	// Only the type counts (it crosses the wire as a typed cause, see
	// TestTypedErrorsOverTCP), not text that reads like it.
	if IsFenced(errors.New(err.Error())) {
		t.Fatalf("string look-alike recognized as a fencing rejection: %q", err.Error())
	}
}

func TestIntentJournal(t *testing.T) {
	var l leaseState
	now := time.Now()

	l.putIntent(PromotionIntent{Slot: 1, DeadAddr: "d", Spare: "s1", Token: 2})
	// A lower-token write (a deposed leader racing) never clobbers.
	l.putIntent(PromotionIntent{Slot: 1, DeadAddr: "d", Spare: "s0", Token: 1})
	// The new leader's re-journal (same or higher token) wins.
	l.putIntent(PromotionIntent{Slot: 1, DeadAddr: "d", Spare: "s1", Token: 5})
	l.putIntent(PromotionIntent{Slot: 3, DeadAddr: "e", Spare: "s2", Token: 4})

	info := l.info(now)
	if len(info.Intents) != 2 {
		t.Fatalf("intents = %+v", info.Intents)
	}
	for _, in := range info.Intents {
		if in.Slot == 1 && (in.Spare != "s1" || in.Token != 5) {
			t.Fatalf("slot 1 intent = %+v", in)
		}
	}

	l.clearIntent(1)
	info = l.info(now)
	if len(info.Intents) != 1 || info.Intents[0].Slot != 3 {
		t.Fatalf("intents after clear = %+v", info.Intents)
	}
}
