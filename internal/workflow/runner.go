package workflow

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"gospaces/internal/domain"
	"gospaces/internal/mpi"
	"gospaces/internal/staging"
	"gospaces/internal/synth"
)

// component is one application of the workflow.
type component struct {
	run    *run
	name   string
	ranks  int
	dec    *domain.Decomposition
	period int
	// producer stages data; otherwise the component consumes it.
	producer bool
	// logged selects the crash-consistent staging path.
	logged bool
	// replicated marks process replication instead of C/R (hybrid).
	replicated bool
	// readLatest makes the consumer read "latest" instead of explicit
	// versions — the individual scheme's unguarded behaviour.
	readLatest bool
	// consumerBase offsets this consumer component's rank ids in the
	// coupler, so multiple consumer components count independently.
	consumerBase int
}

// rankEntry is one rank's execution context for a single attempt.
type rankEntry struct {
	c      *component
	rank   int
	proc   *mpi.Proc
	comm   *mpi.Comm // nil for replicated components
	client *staging.Client
	state  rankState // restored checkpoint state; advanced in place
}

// runRanks executes the entries concurrently until they all finish or
// any fails; the shared abort channel promptly unblocks coupler waits.
func (r *run) runRanks(entries []*rankEntry) []error {
	abort := make(chan struct{})
	var once sync.Once
	fail := func() {
		once.Do(func() {
			// Revoking the communicator unblocks peers stuck in
			// collectives; the abort channel unblocks coupler waits.
			if entries[0].comm != nil {
				entries[0].comm.Revoke()
			}
			close(abort)
		})
	}
	// Global teardown propagation.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-r.doom:
			fail()
		case <-done:
		}
	}()
	errs := make([]error, len(entries))
	var wg sync.WaitGroup
	for i, e := range entries {
		wg.Add(1)
		go func(i int, e *rankEntry) {
			defer wg.Done()
			err := r.rankLoop(e, abort)
			errs[i] = err
			if err != nil {
				fail()
			}
		}(i, e)
	}
	wg.Wait()
	return errs
}

// rankLoop advances one rank from its start timestep to completion.
func (r *run) rankLoop(e *rankEntry, abort <-chan struct{}) error {
	c, f := e.c, r.field
	rankBox, err := c.dec.RankBox(e.rank)
	if err != nil {
		return err
	}
	for ts := e.state.LastTS + 1; ts <= r.opts.Steps; ts++ {
		// Scheduled fail-stop: the process dies at the top of ts.
		if hit, nodeLoss := r.inj.fires(c.name, e.rank, ts); hit {
			if nodeLoss && r.ml != nil {
				r.ml.InvalidateL1(c.name, c.ranks)
			}
			r.world.Kill(e.proc)
			return mpi.ErrDead
		}
		// Scheduled staging-server fail-stops: producer rank 0 pulls the
		// plug at the top of ts; the heartbeat detector and recovery
		// supervisor take it from there.
		if c.producer && e.rank == 0 {
			for _, id := range r.srvInj.due(ts) {
				if err := r.group.FailStop(id); err != nil {
					return fmt.Errorf("workflow: fail-stop server %d: %w", id, err)
				}
			}
		}
		if c.producer {
			// Stencil-style halo exchange with ring neighbours before
			// the step, exercising point-to-point messaging under
			// failures.
			if e.comm != nil && c.ranks > 1 {
				if err := r.haloExchange(e, ts); err != nil {
					return err
				}
			}
			if err := r.coupler.WaitConsumed(ts-1, abort); err != nil {
				return err
			}
			data := f.Fill(ts, rankBox)
			if c.logged {
				err = e.client.PutWithLog(f.Name, ts, rankBox, data)
			} else {
				err = e.client.Put(f.Name, ts, rankBox, data)
			}
			if err != nil {
				return fmt.Errorf("workflow: %s/%d ts%d %s: %w", c.name, e.rank, ts, f.Name, err)
			}
			e.state.fold(synth.Checksum(data))
			r.coupler.MarkProduced(ts, e.rank)
		} else {
			if err := r.coupler.WaitProduced(ts, abort); err != nil {
				return err
			}
			version := ts
			if c.readLatest {
				version = staging.NoVersion
			}
			var data []byte
			if c.logged {
				data, _, err = e.client.GetWithLog(f.Name, version, rankBox)
			} else {
				data, _, err = e.client.Get(f.Name, version, rankBox)
			}
			switch {
			case err != nil && c.readLatest:
				// The unguarded individual scheme races recovering
				// components against live ones; a torn read is one
				// more way it corrupts results.
				r.corruptReads.Add(1)
				// Fold a marker so the state divergence is
				// observable there too.
				e.state.fold(0xdead)
			case err != nil:
				return fmt.Errorf("workflow: %s/%d read ts%d %s: %w", c.name, e.rank, ts, f.Name, err)
			case f.Verify(ts, rankBox, data) >= 0:
				r.corruptReads.Add(1)
				e.state.fold(synth.Checksum(data))
			default:
				r.successReads.Add(1)
				e.state.fold(synth.Checksum(data))
			}
			r.coupler.MarkConsumed(ts, c.consumerBase+e.rank)
		}
		// Per-step synchronization: propagates failure detection and
		// keeps checkpoints component-consistent.
		if e.comm != nil {
			if err := e.comm.Barrier(e.proc); err != nil {
				return err
			}
		}
		if c.period > 0 && !c.replicated && ts%int64(c.period) == 0 {
			if err := r.saveState(c.name, e.rank, rankState{LastTS: ts, Acc: e.state.Acc}); err != nil {
				return err
			}
			if c.logged {
				if _, err := e.client.WorkflowCheck(); err != nil {
					return err
				}
			}
			if e.comm != nil {
				// The paper brackets checkpoints with barriers so no
				// in-flight coupling data spans the cut.
				if err := e.comm.Barrier(e.proc); err != nil {
					return err
				}
			}
		}
		e.state.LastTS = ts
	}
	r.recordAcc(c.name, e.rank, e.state.Acc)
	return nil
}

// haloExchange sends this rank's step marker to its right ring
// neighbour and receives the left neighbour's, verifying it. Message
// content is deterministic, so replayed duplicates after a rollback are
// harmless.
func (r *run) haloExchange(e *rankEntry, ts int64) error {
	type halo struct {
		TS   int64
		Rank int
	}
	right := (e.rank + 1) % e.c.ranks
	left := (e.rank + e.c.ranks - 1) % e.c.ranks
	if err := e.comm.Send(e.proc, right, int(ts), halo{TS: ts, Rank: e.rank}); err != nil {
		return err
	}
	v, err := e.comm.Recv(e.proc, left, int(ts))
	if err != nil {
		return err
	}
	h, ok := v.(halo)
	if !ok || h.TS != ts || h.Rank != left {
		return fmt.Errorf("workflow: %s/%d ts%d: bad halo %+v", e.c.name, e.rank, ts, v)
	}
	r.haloExchanges.Add(1)
	return nil
}

// maxAttempts bounds recovery rounds, as a guard against livelock bugs.
func (r *run) maxAttempts() int {
	return len(r.opts.Failures) + len(r.opts.ServerFailures) + 3
}

// superviseCR runs one component under checkpoint/restart: on failure
// the whole component rolls back to its last checkpoint, repaired with
// spare processes, and replays through the staging log.
func (r *run) superviseCR(c *component) error {
	procs := make([]*mpi.Proc, c.ranks)
	clients := make([]*staging.Client, c.ranks)
	for i := 0; i < c.ranks; i++ {
		procs[i] = r.world.NewProc()
		cl, err := r.group.NewClient(fmt.Sprintf("%s/%d", c.name, i))
		if err != nil {
			return err
		}
		clients[i] = cl
		defer cl.Close()
	}
	states := make([]rankState, c.ranks)

	for attempt := 0; attempt < r.maxAttempts(); attempt++ {
		comm := r.world.NewComm(procs)
		entries := make([]*rankEntry, c.ranks)
		for i := 0; i < c.ranks; i++ {
			entries[i] = &rankEntry{c: c, rank: i, proc: procs[i], comm: comm, client: clients[i], state: states[i]}
		}
		errs := r.runRanks(entries)
		if allNil(errs) {
			return nil
		}
		debugErrs(c.name, errs)
		select {
		case <-r.doom:
			return fmt.Errorf("workflow: %s torn down by sibling failure", c.name)
		default:
		}
		r.recoveries.Add(1)

		// ULFM recovery: repair the communicator from the spare pool.
		repaired, _, err := comm.Repair(r.spares)
		if err != nil {
			return fmt.Errorf("workflow: recover %s: %w", c.name, err)
		}
		procs = repaired.Members()

		// A staging fail-stop may have triggered the rank failures; let
		// the supervisor finish promoting before clients re-dial.
		if err := r.waitServers(); err != nil {
			return fmt.Errorf("workflow: recover %s: %w", c.name, err)
		}

		// Roll every rank of the component back to its checkpoint and
		// switch the staging servers into replay mode for it.
		for i := 0; i < c.ranks; i++ {
			st, err := r.loadState(c.name, i)
			if err != nil {
				return err
			}
			states[i] = st
			if c.logged {
				// Event versions are timesteps, so the restored state
				// covers every event up to st.LastTS: passing it heals a
				// workflow_check torn by a server dying mid-mark.
				n, err := clients[i].WorkflowRestartFrom(st.LastTS)
				if err != nil {
					return err
				}
				r.replayedEvents.Add(int64(n))
			} else if err := clients[i].Reconnect(); err != nil {
				return err
			}
		}
	}
	return fmt.Errorf("workflow: %s exceeded %d recovery attempts", c.name, r.maxAttempts())
}

// superviseCoordinated runs all components as one recovery domain with
// a global communicator: any failure rolls the whole workflow back to
// the last coordinated checkpoint (the paper's baseline scheme).
func (r *run) superviseCoordinated(comps []*component) error {
	type slot struct {
		c      *component
		rank   int
		client *staging.Client
		state  rankState
	}
	var slots []*slot
	var procs []*mpi.Proc
	for _, c := range comps {
		for i := 0; i < c.ranks; i++ {
			cl, err := r.group.NewClient(fmt.Sprintf("%s/%d", c.name, i))
			if err != nil {
				return err
			}
			defer cl.Close()
			slots = append(slots, &slot{c: c, rank: i, client: cl})
			procs = append(procs, r.world.NewProc())
		}
	}

	for attempt := 0; attempt < r.maxAttempts(); attempt++ {
		comm := r.world.NewComm(procs)
		entries := make([]*rankEntry, len(slots))
		for i, s := range slots {
			entries[i] = &rankEntry{c: s.c, rank: s.rank, proc: procs[i], comm: comm, client: s.client, state: s.state}
		}
		errs := r.runRanks(entries)
		if allNil(errs) {
			return nil
		}
		r.recoveries.Add(1)

		repaired, _, err := comm.Repair(r.spares)
		if err != nil {
			return fmt.Errorf("workflow: coordinated recovery: %w", err)
		}
		procs = repaired.Members()

		// If a staging server fail-stopped, wait for the supervisor to
		// promote its spare so the rollback re-dials the live address.
		if err := r.waitServers(); err != nil {
			return fmt.Errorf("workflow: coordinated recovery: %w", err)
		}

		// Global rollback: everyone reloads the coordinated checkpoint.
		restart := int64(0)
		first := true
		for _, s := range slots {
			st, err := r.loadState(s.c.name, s.rank)
			if err != nil {
				return err
			}
			s.state = st
			if err := s.client.Reconnect(); err != nil {
				return err
			}
			if first || st.LastTS < restart {
				restart = st.LastTS
				first = false
			}
		}
		// The whole coupling cycle re-arms past the restart point.
		r.coupler.Reset(restart)
	}
	return fmt.Errorf("workflow: coordinated domain exceeded %d recovery attempts", r.maxAttempts())
}

// superviseReplicated runs a process-replicated component: each rank
// failure is masked by switching to a replica at the current timestep —
// no rollback, no staging replay (paper §III-B).
func (r *run) superviseReplicated(c *component) error {
	var wg sync.WaitGroup
	errs := make([]error, c.ranks)
	for i := 0; i < c.ranks; i++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			// A replica that stops on an error unwinds the whole run at
			// once: its coupling peers would otherwise wait for it forever.
			fail := func(err error) {
				errs[rank] = err
				r.condemn()
			}
			name := fmt.Sprintf("%s/%d", c.name, rank)
			client, err := r.group.NewClient(name)
			if err != nil {
				fail(err)
				return
			}
			defer client.Close()
			e := &rankEntry{c: c, rank: rank, proc: r.world.NewProc(), client: client}
			// Replicas never abort each other; only global teardown
			// unblocks their coupler waits.
			abort := r.doom
			for attempt := 0; attempt < r.maxAttempts(); attempt++ {
				err := r.rankLoop(e, abort)
				if err == nil {
					return
				}
				switch {
				case errors.Is(err, mpi.ErrDead):
					// Replica takeover: same in-memory state, fresh process.
					r.recoveries.Add(1)
					sp, ok := r.spares.Get()
					if !ok {
						fail(fmt.Errorf("workflow: no replica available for %s/%d", c.name, rank))
						return
					}
					e.proc = sp
				case errors.Is(err, staging.ErrDegraded) || staging.IsStaleEpoch(err) || errors.Is(err, staging.ErrSlotDown):
					// Staging degraded — a server fail-stopped mid-call.
					// Replication masks process failures, but the staging
					// area still has to heal: wait out the promotion and
					// retry the current timestep against the restored
					// membership. No replica is consumed and no rollback
					// happens; the state advanced in place is still valid.
				default:
					fail(err)
					return
				}
				if err := r.waitServers(); err != nil {
					fail(err)
					return
				}
				if err := client.Reconnect(); err != nil {
					fail(err)
					return
				}
			}
			fail(fmt.Errorf("workflow: %s/%d exceeded recovery attempts", c.name, rank))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// debugErrs reports rank errors when GOSPACES_DEBUG is set.
func debugErrs(name string, errs []error) {
	if os.Getenv("GOSPACES_DEBUG") == "" {
		return
	}
	for i, err := range errs {
		if err != nil {
			fmt.Printf("[debug] %s rank %d: %v\n", name, i, err)
		}
	}
}

func allNil(errs []error) bool {
	for _, err := range errs {
		if err != nil {
			return false
		}
	}
	return true
}
