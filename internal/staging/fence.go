package staging

import (
	"sync"
	"time"

	"gospaces/internal/health"
)

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
	fence   health.Fence
	intents map[int]health.Intent
}

// cas is the server-side lease compare-and-swap. A proposal is granted
// when the record is free (empty or expired) or already held by the
// proposer, and the fence admits the proposed token. A grant stores the
// record, extends the expiry by TTL, and sets the fence to the granted
// token — from that moment every fenced call by an older leader is
// rejected. The proposer reads the outcome off the record
// (health.Lease.Grants).
func (l *leaseState) cas(r LeaseCASReq, now time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if r.Release {
		if l.holder == r.Holder {
			l.holder = ""
			l.until = time.Time{}
		}
		return
	}
	if l.holder != "" && l.holder != r.Holder && now.Before(l.until) {
		return
	}
	if l.fence.Admit(r.Token) != nil {
		return
	}
	l.holder, l.token, l.until = r.Holder, r.Token, now.Add(r.TTL)
}

// admit checks a fenced call's token against the fence, raising the
// fence to the token when it leads. It returns the rejection error for
// stale tokens.
func (l *leaseState) admit(token uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fence.Admit(token)
}

// putIntent journals a promotion intent, keeping the record with the
// highest token per slot (a resumed promotion re-journals under the
// new leader's token).
func (l *leaseState) putIntent(in health.Intent) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.intents == nil {
		l.intents = make(map[int]health.Intent)
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

// record snapshots the lease record and the journaled intents for the
// server's PingResp.
func (l *leaseState) record(now time.Time) health.Lease {
	l.mu.Lock()
	defer l.mu.Unlock()
	rec := health.Lease{Holder: l.holder, Token: l.token, Fence: uint64(l.fence)}
	if l.holder != "" {
		rec.ExpiresIn = l.until.Sub(now)
	}
	for _, in := range l.intents {
		rec.Intents = append(rec.Intents, in)
	}
	return rec
}
