package health

import (
	"errors"
	"fmt"
	"time"
)

// Intent journals one in-flight spare promotion: the leader writes it
// to the members (fenced) before mutating anything, so a standby that
// takes over mid-promotion resumes the same slot with the same spare.
type Intent struct {
	Slot     int
	DeadAddr string
	Spare    string
	Token    uint64
}

// Lease is one member's record of recovery leadership, as its PingResp
// carries it: the lease it granted (Holder under Token for ExpiresIn;
// no Holder when free), its Fence and the intents journaled on it.
type Lease struct {
	Holder    string
	Token     uint64
	Fence     uint64
	ExpiresIn time.Duration
	Intents   []Intent
}

// Grants reports whether the record grants holder the lease under
// token. A grant records the proposal and raises the fence to it; a
// refused proposal leaves another holder or token, or a fence past the
// proposed token — so a renewal behind a newer leader's fence reads as
// no grant, though the record still names the proposer.
func (l Lease) Grants(holder string, token uint64) bool {
	return l.Holder == holder && l.Token == token && l.Fence == token
}

// Fence is the one fencing rule, for a member's lease record and the
// supervisors' Membership alike: the highest token granted or written.
// A token behind it is a deposed leader's. Its holder locks it.
type Fence uint64

// Admit raises the fence to token, or rejects a token behind it with a
// *FencedError.
func (f *Fence) Admit(token uint64) error {
	if token < uint64(*f) {
		return &FencedError{Token: token, Fence: uint64(*f)}
	}
	*f = Fence(token)
	return nil
}

// FencedError rejects a recovery-side mutation from a deposed leader:
// its token trails the fence. The caller must stop mutating.
type FencedError struct {
	Token uint64 // token the call carried
	Fence uint64 // highest token the receiver has seen
}

func (e *FencedError) Error() string {
	return fmt.Sprintf("health: fenced: stale leader token: call fenced at %d, fence at %d", e.Token, e.Fence)
}

// IsFenced reports whether err's chain holds a fencing rejection, in
// process or behind a remote transport alike (it crosses as a typed
// cause).
func IsFenced(err error) bool {
	var fe *FencedError
	return errors.As(err, &fe)
}
