package health

import (
	"fmt"
	"slices"
	"sync"
)

// Change is one membership transition: slot ID re-pointed to Addr at
// the (freshly bumped) Epoch.
type Change struct {
	Epoch  uint64
	Server int
	Addr   string
}

// View is one membership view: the epoch, the slot addresses in slot
// order and the stranded slots (dead with no spare to promote),
// ascending. It is the one record of the view: the recovery leader
// pushes it (staging.EpochSetReq), every server answers its own in
// PingResp, and clients route on the one they adopted. A holder
// replaces its View on a newer one and never writes into it, so
// answers may share its slices.
type View struct {
	Epoch uint64
	Addrs []string
	Down  []int
}

// IsDown reports whether v strands slot.
func (v View) IsDown(slot int) bool { return slices.Contains(v.Down, slot) }

// Membership is the recovery supervisors' record of the epoch-stamped
// staging server set. Exactly one writer — the recovery leader — bumps
// it, and pushes each new view to the servers; standbys follow it
// through Subscribe. Clients never read it: they learn the view from
// the servers. Epochs start at 1 and grow by one per change — a
// promotion, a slot stranded or a stranded slot healed — so one epoch
// names one view, and a client whose stamped epoch trails the servers'
// is provably routing on a stale view.
type Membership struct {
	mu   sync.Mutex
	view View
	subs []chan Change
	// fence is the highest fencing token that has written (or sealed)
	// the membership; fenced writes carrying an older token are rejected,
	// so a deposed recovery leader cannot race the current one even
	// in-process.
	fence Fence
}

// NewMembership creates epoch 1 over the given addresses in slot
// order.
func NewMembership(addrs []string) *Membership {
	return &Membership{view: View{Epoch: 1, Addrs: slices.Clone(addrs)}}
}

// View returns the current view, shared: the caller must not write
// into it.
func (m *Membership) View() View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// Epoch returns the current epoch.
func (m *Membership) Epoch() uint64 { return m.View().Epoch }

// Addrs returns a copy of the current server addresses in slot order.
func (m *Membership) Addrs() []string { return slices.Clone(m.View().Addrs) }

// Addr returns the address of slot id ("" when out of range).
func (m *Membership) Addr(id int) string {
	if addrs := m.View().Addrs; id >= 0 && id < len(addrs) {
		return addrs[id]
	}
	return ""
}

// Fence seals the membership at a fencing token: writes carrying an
// older token are rejected from now on. A freshly elected recovery
// leader fences the membership with its lease token so a deposed
// in-process leader's stale ReplaceFenced cannot land mid-takeover.
func (m *Membership) Fence(token uint64) {
	m.mu.Lock()
	_ = m.fence.Admit(token) // an older token leaves the seal as it is
	m.mu.Unlock()
}

// ReplaceFenced points slot id at a new address under a fencing token
// and bumps the epoch, notifying subscribers; it returns the new epoch.
// A promoted slot is no longer stranded. The write is rejected with a
// *FencedError when token trails the highest the membership has seen. It
// is idempotent — re-pointing a slot at the address it already holds
// (a takeover resuming a deposed leader's completed write) returns the
// current epoch without a bump, so a resumed promotion never
// double-counts.
func (m *Membership) ReplaceFenced(token uint64, id int, addr string) (uint64, error) {
	m.mu.Lock()
	v := m.view
	if id < 0 || id >= len(v.Addrs) {
		m.mu.Unlock()
		return 0, fmt.Errorf("health: no membership slot %d", id)
	}
	if err := m.fence.Admit(token); err != nil {
		m.mu.Unlock()
		return 0, err
	}
	if v.Addrs[id] == addr {
		m.mu.Unlock()
		return v.Epoch, nil
	}
	addrs := slices.Clone(v.Addrs)
	addrs[id] = addr
	down := slices.DeleteFunc(slices.Clone(v.Down), func(s int) bool { return s == id })
	m.view = View{Epoch: v.Epoch + 1, Addrs: addrs, Down: down}
	ev := Change{Epoch: m.view.Epoch, Server: id, Addr: addr}
	subs := append([]chan Change(nil), m.subs...)
	m.mu.Unlock()
	for _, ch := range subs {
		select {
		case ch <- ev:
		default: // slow subscriber: drop the oldest change
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- ev:
			default:
			}
		}
	}
	return ev.Epoch, nil
}

// SetDownFenced strands slot id (down) or heals it under a fencing
// token, bumping the epoch when that changes the stranded set, and
// reports whether it did. Subscribers are not notified: no slot is
// re-pointed. The write is rejected with a *FencedError when token
// trails the highest the membership has seen.
func (m *Membership) SetDownFenced(token uint64, id int, down bool) (bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := m.view
	if id < 0 || id >= len(v.Addrs) {
		return false, fmt.Errorf("health: no membership slot %d", id)
	}
	if err := m.fence.Admit(token); err != nil {
		return false, err
	}
	i, found := slices.BinarySearch(v.Down, id)
	if down == found {
		return false, nil
	}
	if down {
		v.Down = slices.Insert(slices.Clone(v.Down), i, id)
	} else {
		v.Down = slices.Delete(slices.Clone(v.Down), i, i+1)
	}
	v.Epoch++
	m.view = v
	return true, nil
}

// Subscribe returns a buffered channel of membership changes. The
// channel is never closed; a subscriber that stops reading loses the
// oldest changes but can always resynchronize via View.
func (m *Membership) Subscribe() <-chan Change {
	ch := make(chan Change, 16)
	m.mu.Lock()
	m.subs = append(m.subs, ch)
	m.mu.Unlock()
	return ch
}
