// Package mpi is a goroutine-based runtime with the shape of MPI plus
// the ULFM fault-tolerance verbs the paper's recovery path relies on
// (§III-C): fail-stop process failures, revoked communicators, and
// repair from a spare-process pool. Application components in this
// repository run their ranks as goroutines against this runtime
// (point-to-point messages and a barrier); on a Cray the same verbs are
// provided by MPI + ULFM.
//
// Semantics follow ULFM's: a process failure revokes every communicator
// it belongs to; the barrier and point-to-point operations involving
// the failed process return errors instead of hanging; survivors build
// a replacement communicator with Repair, drawing fresh processes from
// a SparePool.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrRevoked is returned by operations on a communicator that has been
// revoked by a member failure. Survivors must Repair to a new
// communicator.
var ErrRevoked = errors.New("mpi: communicator revoked by process failure")

// ErrDead is returned by operations issued by a killed process.
var ErrDead = errors.New("mpi: calling process has failed")

// ProcFailedError reports a failed peer rank.
type ProcFailedError struct{ Rank int }

func (e ProcFailedError) Error() string {
	return fmt.Sprintf("mpi: process at rank %d has failed", e.Rank)
}

type msgKey struct {
	src int // proc id
	tag int
}

// Proc is one process of the world. A Proc's operations must be called
// from a single goroutine (its "rank body").
type Proc struct {
	id    int
	world *World

	mu    sync.Mutex
	cond  *sync.Cond
	dead  atomic.Bool
	inbox map[msgKey][]any
}

// ID returns the world-unique process id.
func (p *Proc) ID() int { return p.id }

// Dead reports whether the process has been killed.
func (p *Proc) Dead() bool { return p.dead.Load() }

// World owns processes and communicators and injects failures.
type World struct {
	mu     sync.Mutex
	nextID int
	procs  map[int]*Proc
	comms  []*Comm
}

// NewWorld returns an empty world.
func NewWorld() *World {
	return &World{procs: make(map[int]*Proc)}
}

// NewProc creates a live process.
func (w *World) NewProc() *Proc {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.nextID++
	p := &Proc{id: w.nextID, world: w, inbox: make(map[msgKey][]any)}
	p.cond = sync.NewCond(&p.mu)
	w.procs[p.id] = p
	return p
}

// Kill fail-stops a process: its pending and future operations error,
// and every communicator containing it is revoked.
func (w *World) Kill(p *Proc) {
	p.dead.Store(true)
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()

	w.mu.Lock()
	comms := append([]*Comm(nil), w.comms...)
	procs := make([]*Proc, 0, len(w.procs))
	for _, q := range w.procs {
		procs = append(procs, q)
	}
	w.mu.Unlock()

	for _, c := range comms {
		c.noteFailure(p)
	}
	// Wake every blocked receiver so it can observe the failure.
	for _, q := range procs {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	}
}

// NewComm builds a communicator over the given processes; rank i is
// members[i].
func (w *World) NewComm(members []*Proc) *Comm {
	c := &Comm{world: w, members: append([]*Proc(nil), members...)}
	c.cond = sync.NewCond(&c.mu)
	w.mu.Lock()
	w.comms = append(w.comms, c)
	w.mu.Unlock()
	return c
}

// Comm is a communicator: an ordered set of processes.
type Comm struct {
	world   *World
	members []*Proc

	revoked atomic.Bool

	mu   sync.Mutex
	cond *sync.Cond
	// barrier state, guarded by mu
	phase   int64
	arrived map[int]struct{} // proc ids arrived in current phase
}

// Rank returns p's rank in c, or -1.
func (c *Comm) Rank(p *Proc) int {
	for i, m := range c.members {
		if m == p {
			return i
		}
	}
	return -1
}

// Revoked reports whether a member failure has revoked c.
func (c *Comm) Revoked() bool { return c.revoked.Load() }

func (c *Comm) noteFailure(p *Proc) {
	if c.Rank(p) < 0 {
		return
	}
	c.Revoke()
}

// Revoke explicitly revokes the communicator (MPI_Comm_revoke):
// current and future operations on it fail with ErrRevoked. Survivors
// use it to interrupt peers stuck in the barrier before recovery.
func (c *Comm) Revoke() {
	c.revoked.Store(true)
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	// Recv waits on the receiving process's cond, not the
	// communicator's; wake the members so point-to-point waiters
	// observe the revocation too.
	for _, m := range c.members {
		m.mu.Lock()
		m.cond.Broadcast()
		m.mu.Unlock()
	}
}

// checkAlive returns an error when the caller is dead or the comm is
// revoked; callers hold no locks.
func (c *Comm) checkAlive(p *Proc) error {
	if p.Dead() {
		return ErrDead
	}
	if c.Revoked() {
		return ErrRevoked
	}
	return nil
}

// Send delivers v to dstRank with the given tag. It fails if the
// destination is dead or the communicator revoked.
func (c *Comm) Send(p *Proc, dstRank, tag int, v any) error {
	if err := c.checkAlive(p); err != nil {
		return err
	}
	if dstRank < 0 || dstRank >= len(c.members) {
		return fmt.Errorf("mpi: send to rank %d of %d", dstRank, len(c.members))
	}
	dst := c.members[dstRank]
	if dst.Dead() {
		return ProcFailedError{Rank: dstRank}
	}
	dst.mu.Lock()
	defer dst.mu.Unlock()
	k := msgKey{src: p.id, tag: tag}
	dst.inbox[k] = append(dst.inbox[k], v)
	dst.cond.Broadcast()
	return nil
}

// Recv blocks for a message from srcRank with the given tag. It returns
// an error if the source fails before delivering or the communicator is
// revoked mid-wait.
func (c *Comm) Recv(p *Proc, srcRank, tag int) (any, error) {
	if srcRank < 0 || srcRank >= len(c.members) {
		return nil, fmt.Errorf("mpi: recv from rank %d of %d", srcRank, len(c.members))
	}
	src := c.members[srcRank]
	k := msgKey{src: src.id, tag: tag}
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if q := p.inbox[k]; len(q) > 0 {
			v := q[0]
			if len(q) == 1 {
				delete(p.inbox, k)
			} else {
				p.inbox[k] = q[1:]
			}
			return v, nil
		}
		if p.Dead() {
			return nil, ErrDead
		}
		if src.Dead() {
			return nil, ProcFailedError{Rank: srcRank}
		}
		if c.Revoked() {
			return nil, ErrRevoked
		}
		p.cond.Wait()
	}
}

// Barrier blocks until all members arrive, failing with ErrRevoked if a
// member dies first. Each member enters once per phase, in lockstep; a
// second entry into the same phase is an error.
func (c *Comm) Barrier(p *Proc) error {
	if err := c.checkAlive(p); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.arrived == nil {
		c.arrived = make(map[int]struct{})
	}
	myPhase := c.phase
	if _, dup := c.arrived[p.id]; dup {
		return fmt.Errorf("mpi: proc %d entered the barrier twice in one phase", p.id)
	}
	c.arrived[p.id] = struct{}{}
	if len(c.arrived) == len(c.members) {
		// Last arrival completes the phase.
		c.arrived = make(map[int]struct{})
		c.phase++
		c.cond.Broadcast()
		return nil
	}
	for c.phase == myPhase && !c.revoked.Load() {
		if p.Dead() {
			return ErrDead
		}
		c.cond.Wait()
	}
	if c.phase == myPhase {
		return ErrRevoked
	}
	return nil
}

// Repair returns a new communicator of the same size with failed
// members replaced by spares, plus the ranks that were replaced. It
// fails if the pool runs dry (the job would have to request new nodes
// from the scheduler instead, §III-C).
func (c *Comm) Repair(pool *SparePool) (*Comm, []int, error) {
	members := make([]*Proc, len(c.members))
	var replaced []int
	for i, m := range c.members {
		if !m.Dead() {
			members[i] = m
			continue
		}
		sp, ok := pool.Get()
		if !ok {
			return nil, nil, fmt.Errorf("mpi: spare pool exhausted repairing rank %d", i)
		}
		members[i] = sp
		replaced = append(replaced, i)
	}
	return c.world.NewComm(members), replaced, nil
}

// SparePool is a pool of idle pre-allocated processes used to rebuild
// communicators after failures.
type SparePool struct {
	mu   sync.Mutex
	free []*Proc
}

// NewSparePool creates a pool with n fresh processes from w.
func NewSparePool(w *World, n int) *SparePool {
	p := &SparePool{}
	for i := 0; i < n; i++ {
		p.free = append(p.free, w.NewProc())
	}
	return p
}

// Get takes a spare from the pool.
func (p *SparePool) Get() (*Proc, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) == 0 {
		return nil, false
	}
	sp := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return sp, true
}

// Members returns the communicator's processes in rank order.
func (c *Comm) Members() []*Proc {
	return append([]*Proc(nil), c.members...)
}
