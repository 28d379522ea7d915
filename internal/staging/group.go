package staging

import (
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"

	"gospaces/internal/health"
	"gospaces/internal/transport"
)

// Group is a running set of staging servers plus the Pool clients use
// to reach them, an epoch-stamped Membership naming the live server
// set, and an optional pool of warm spares the recovery supervisor can
// promote after a fail-stop.
type Group struct {
	*Pool
	tr         transport.Transport
	prefix     string
	membership *health.Membership

	mu sync.Mutex
	// nodes are the servers serving (or, once fail-stopped, that served)
	// member traffic: the original members in id order, then promoted
	// spares in promotion order. spares wait outside the membership.
	nodes  []node
	spares []node
	// assigned maps a dead membership slot to the spare drawn for its
	// promotion. The assignment is idempotent (TakeSpareFor returns the
	// same spare until the promotion commits or the spare is returned),
	// which is what lets a recovery-leader takeover resume a half-done
	// promotion without double-spending a second spare on the slot.
	assigned map[int]node
	spareSeq int // monotonic spare address counter (survives returns)
}

// node is one running server of the group: what Serve returned.
type node struct {
	srv    *Server
	addr   string
	closer io.Closer
}

// Serve brings up staging server id on tr at addr, configured from cfg
// in the one order that works: the memory budget, QoS before the tier
// (whose default watermark is the QoS SpillWater), the listener, and —
// only once the bound address is known, because a server finds its own
// membership slot by address — log replication. A spare answers pings
// but waits outside the membership. It returns the server, its
// listener and the address it bound (which differs from addr for ":0").
func Serve(tr transport.Transport, addr string, id int, cfg Config, spare bool) (*Server, io.Closer, string, error) {
	srv := NewServer(id)
	srv.SetSpare(spare)
	srv.SetMemoryBudget(cfg.MemoryBudgetPerServer)
	if cfg.QoS != nil {
		srv.EnableQoS(*cfg.QoS)
	}
	if cfg.TierBackend != nil {
		srv.EnableTier(cfg.TierBackend(id), cfg.TierWatermark)
	}
	closer, err := tr.Listen(addr, srv.Handle)
	if err != nil {
		return nil, nil, "", err
	}
	if a, ok := closer.(interface{ Addr() string }); ok {
		addr = a.Addr()
	}
	srv.EnableReplication(tr, addr, cfg.WlogReplicas)
	return srv, closer, addr, nil
}

// listenAddr names the n-th server (or, with kind "spare/", spare) of a
// group: a prefix containing ":" is a TCP host:port every server
// listens on as given (use ":0" for ephemeral ports); otherwise
// addresses are "<prefix>/<kind><n>".
func listenAddr(prefix, kind string, n int) string {
	if strings.Contains(prefix, ":") {
		return prefix
	}
	return fmt.Sprintf("%s/%s%d", prefix, kind, n)
}

// StartGroup launches cfg.NServers staging servers on tr at addresses
// "<prefix>/<id>" and returns the group handle.
func StartGroup(tr transport.Transport, prefix string, cfg Config) (*Group, error) {
	g := &Group{tr: tr, prefix: prefix, assigned: make(map[int]node)}
	for i := 0; i < cfg.NServers; i++ {
		srv, closer, addr, err := Serve(tr, listenAddr(prefix, "", i), i, cfg, false)
		if err != nil {
			g.Close()
			return nil, fmt.Errorf("staging: start server %d: %w", i, err)
		}
		g.nodes = append(g.nodes, node{srv, addr, closer})
	}
	addrs := g.Addrs()
	pool, err := NewPool(tr, addrs, cfg)
	if err != nil {
		g.Close()
		return nil, err
	}
	g.Pool = pool
	g.membership = health.NewMembership(addrs)
	// Seed every member with the initial view so epoch-stamped calls
	// (epoch 1) pass and MembershipReq answers are useful from the start.
	for _, n := range g.nodes {
		n.srv.SetMembership(1, addrs)
	}
	return g, nil
}

// Membership returns the group's epoch-stamped server set. Exactly one
// writer — the recovery supervisor — should bump it.
func (g *Group) Membership() *health.Membership { return g.membership }

// AddSpare starts a warm spare server outside the membership: running
// and answering pings at "<prefix>/spare/<n>", but holding no data and
// receiving no client traffic until the recovery supervisor promotes
// it. It returns the spare's address.
func (g *Group) AddSpare() (string, error) {
	g.mu.Lock()
	n := g.spareSeq
	g.spareSeq++
	id := len(g.nodes) + n // spare keeps its own id; slots are bound by address
	g.mu.Unlock()
	// A promoted spare serves under the group's budget and admission
	// policy (its per-tenant usage is rebased from the restored content
	// at promotion) and gets a tier store of its own, which the
	// promotion resets before the wlog restore repopulates staging RAM.
	// It replicates too once promoted; until then its slot is unresolved
	// and the replicator stays idle.
	srv, closer, addr, err := Serve(g.tr, listenAddr(g.prefix, "spare/", n), id, g.Pool.cfg, true)
	if err != nil {
		return "", fmt.Errorf("staging: start spare %d: %w", n, err)
	}
	g.mu.Lock()
	g.spares = append(g.spares, node{srv, addr, closer})
	g.mu.Unlock()
	return addr, nil
}

// TakeSpareFor draws a spare for the promotion of a dead membership
// slot. The draw is idempotent: until CommitSpare or ReturnSpare, the
// slot keeps the same spare, so a recovery-leader takeover that
// resumes a half-done promotion gets the spare the deposed leader
// already spent — never a second one. It is the recovery.SparePool the
// supervisor draws from.
func (g *Group) TakeSpareFor(slot int) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if e, ok := g.assigned[slot]; ok {
		return e.addr, true
	}
	if len(g.spares) == 0 {
		return "", false
	}
	e := g.spares[0]
	g.spares = g.spares[1:]
	g.nodes = append(g.nodes, e) // its listener now serves member traffic
	g.assigned[slot] = e
	return e.addr, true
}

// ReturnSpare puts the spare assigned to slot back in the pool — the
// promotion failed before the spare entered the membership (log
// restore or membership write failed). It reports whether a spare was
// actually returned.
func (g *Group) ReturnSpare(slot int) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.assigned[slot]
	if !ok {
		return false
	}
	delete(g.assigned, slot)
	// Undo the member tracking TakeSpareFor added.
	g.nodes = slices.DeleteFunc(g.nodes, func(n node) bool { return n.addr == e.addr })
	g.spares = append(g.spares, e)
	return true
}

// CommitSpare finalizes the promotion of slot: the assignment is
// dropped, so a later death of the same slot draws a fresh spare.
func (g *Group) CommitSpare(slot int) {
	g.mu.Lock()
	delete(g.assigned, slot)
	g.mu.Unlock()
}

// SparesConsumed reports how many spares have been permanently drawn
// from the pool (taken and not returned) — the soak's recovery ledger
// counts it against the number of fail-stops (no double spend).
func (g *Group) SparesConsumed() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.spareSeq - len(g.spares)
}

// Spares returns the addresses of the remaining unpromoted spares.
func (g *Group) Spares() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.spares))
	for i, e := range g.spares {
		out[i] = e.addr
	}
	return out
}

// FailStop permanently kills server id: its listener closes, so every
// call and dial to its address fails, and its object, log, and shard
// state is unreachable for good — the real fail-stop the recovery
// supervisor exists to repair (unlike ReplaceServer, nothing comes back
// at the old address).
func (g *Group) FailStop(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return fmt.Errorf("staging: no server %d", id)
	}
	err := g.nodes[id].closer.Close()
	g.nodes[id].closer = nopCloser{} // Close must not re-close the dead listener
	return err
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// ReplaceServer simulates losing staging server id and bringing up an
// empty replacement at the same address, configured like the server it
// replaces and holding the group's current membership view: all
// object, log, and shard state on that server is gone. Clients keep
// working through the same address; shard data protected by the
// resilience layer (internal/corec) is recoverable with Rebuild, and
// object data is recoverable from producers via the crash-consistency
// protocol.
func (g *Group) ReplaceServer(id int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if id < 0 || id >= len(g.nodes) {
		return fmt.Errorf("staging: no server %d", id)
	}
	if err := g.nodes[id].closer.Close(); err != nil {
		return fmt.Errorf("staging: stop server %d: %w", id, err)
	}
	srv, closer, addr, err := Serve(g.tr, g.nodes[id].addr, id, g.Pool.cfg, false)
	if err != nil {
		return fmt.Errorf("staging: restart server %d: %w", id, err)
	}
	addrs, epoch := g.membership.Snapshot()
	srv.SetMembership(epoch, addrs)
	g.nodes[id] = node{srv, addr, closer}
	return nil
}

// Server returns the id-th server (for in-proc inspection in tests).
// Promoted spares append after the original members in promotion order.
func (g *Group) Server(id int) *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.nodes[id].srv
}

// ServerAt returns the server currently listening at addr (nil if
// none) — the way tests inspect a promoted spare by its membership
// slot address.
func (g *Group) ServerAt(addr string) *Server {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, list := range [][]node{g.nodes, g.spares} {
		for _, n := range list {
			if n.addr == addr {
				return n.srv
			}
		}
	}
	return nil
}

// Addrs returns the servers' original bound addresses in id order (the
// chaos transport targets faults by address); the Pool holds the
// post-promotion view.
func (g *Group) Addrs() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, len(g.nodes))
	for i, n := range g.nodes {
		out[i] = n.addr
	}
	return out
}

// Close stops all servers, including unpromoted spares.
func (g *Group) Close() error {
	g.mu.Lock()
	all := append(append([]node(nil), g.nodes...), g.spares...)
	g.mu.Unlock()
	for _, n := range all {
		n.srv.StopReplication()
	}
	var first error
	for _, n := range all {
		if err := n.closer.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
