package staging

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// FencedError rejects a recovery-side mutation carrying a fencing
// token older than the highest this server has granted: the caller is
// a deposed recovery leader whose lease has been superseded, and must
// stop mutating — the current leader owns the promotion.
type FencedError struct {
	Token uint64 // token the call carried
	Fence uint64 // highest token the server has seen
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("staging: fenced: stale leader token: call fenced at %d, server at %d", e.Token, e.Fence)
}

// IsFenced reports whether err's chain holds a fencing rejection, in
// process or behind a remote transport alike (see IsStaleEpoch).
func IsFenced(err error) bool {
	var fe *FencedError
	return errors.As(err, &fe)
}

// leaseState is the server-side half of recovery-leader election: one
// lease record (holder, token, expiry) plus the monotonic fence — the
// highest token ever granted or carried by an accepted fenced call.
// Every member of a staging group holds its own lease record; a
// supervisor is leader while a majority of members grant it the lease.
type leaseState struct {
	mu      sync.Mutex
	holder  string
	token   uint64
	until   time.Time
	fence   uint64
	intents map[int]PromotionIntent
}

// cas is the server-side lease compare-and-swap. A proposal is granted
// when the record is free (empty or expired) or already held by the
// proposer, and the proposed token is not behind the highest token this
// server has seen. A grant stores the record, extends the expiry by
// TTL, and raises the fence to the granted token — from that moment
// every fenced call by an older leader is rejected.
func (l *leaseState) cas(r LeaseCASReq, now time.Time) LeaseCASResp {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Release {
		if l.holder == r.Holder {
			l.holder = ""
			l.until = time.Time{}
		}
		max := l.token
		if l.fence > max {
			max = l.fence
		}
		return LeaseCASResp{Holder: l.holder, Token: l.token, MaxToken: max}
	}
	held := l.holder != "" && now.Before(l.until)
	max := l.token
	if l.fence > max {
		max = l.fence
	}
	if (held && l.holder != r.Holder) || r.Token < max {
		return LeaseCASResp{Holder: l.holder, Token: l.token, MaxToken: max, ExpiresIn: l.until.Sub(now)}
	}
	l.holder = r.Holder
	l.token = r.Token
	l.until = now.Add(r.TTL)
	if r.Token > l.fence {
		l.fence = r.Token
	}
	return LeaseCASResp{Granted: true, Holder: l.holder, Token: l.token, MaxToken: l.fence, ExpiresIn: r.TTL}
}

// admit checks a fenced call's token against the fence, raising the
// fence to the token when it leads. It returns the rejection error for
// stale tokens.
func (l *leaseState) admit(token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if token < l.fence {
		return &FencedError{Token: token, Fence: l.fence}
	}
	l.fence = token
	return nil
}

// putIntent journals a promotion intent, keeping the record with the
// highest token per slot (a resumed promotion re-journals under the
// new leader's token).
func (l *leaseState) putIntent(in PromotionIntent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.intents == nil {
		l.intents = make(map[int]PromotionIntent)
	}
	if cur, ok := l.intents[in.Slot]; !ok || in.Token >= cur.Token {
		l.intents[in.Slot] = in
	}
}

// clearIntent drops the journaled intent for a slot.
func (l *leaseState) clearIntent(slot int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.intents, slot)
}

// info snapshots the lease record and journaled intents for
// LeaderInfoReq (dsctl leader, takeover resume).
func (l *leaseState) info(now time.Time) LeaderInfoResp {
	l.mu.Lock()
	defer l.mu.Unlock()
	resp := LeaderInfoResp{Holder: l.holder, Token: l.token, MaxFence: l.fence}
	if l.holder != "" {
		resp.ExpiresIn = l.until.Sub(now)
	}
	for _, in := range l.intents {
		resp.Intents = append(resp.Intents, in)
	}
	return resp
}
