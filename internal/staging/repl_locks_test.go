package staging

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"gospaces/internal/locks"
)

// foldLocks is the lock table a replica of origin holds at stream
// position seq: the origin's retained records up to seq, applied in
// order to an empty table.
func foldLocks(t *testing.T, origin *Server, seq int64) locks.State {
	t.Helper()
	recs, ok := origin.repl.since(0, seq)
	if !ok {
		t.Fatalf("origin log does not hold (0, %d]", seq)
	}
	m := locks.NewManager()
	for _, rec := range recs {
		if rec.Lock != nil {
			m.Apply(*rec.Lock)
		}
	}
	return m.Export(nil)
}

// TestLockTableReplicationDifferential runs contended lock traffic from
// four holders against the lock server — write contention, read
// recursion, failing operations, retried sequence numbers — while a
// fifth holder dies holding locks and with an acquire queued, and is
// recovered. Every snapshot taken mid-traffic, and every replica
// fetched, must hold exactly the table the stream's records up to its
// position build; after quiescence each replica equals the origin, and a
// spare that installs the freshest replica answers every retried
// LockReq as the origin does.
func TestLockTableReplicationDifferential(t *testing.T) {
	for _, k := range []int{1, 2} {
		t.Run(fmt.Sprintf("K=%d", k), func(t *testing.T) {
			g := replGroup(t, 3, k)
			origin := g.Server(lockServer)
			lock := func(req LockReq) error {
				_, err := origin.Handle(req)
				return err
			}
			check := func(what string) {
				own, err := origin.buildReplState()
				if err != nil {
					t.Fatal(err)
				}
				if got := foldLocks(t, origin, own.Seq); !reflect.DeepEqual(got, own.Locks) {
					t.Fatalf("%s: snapshot at seq %d holds\n%+v\nits records build\n%+v", what, own.Seq, own.Locks, got)
				}
				for host := 1; host <= k; host++ {
					rep := fetchReplica(t, g.Server(host), lockServer)
					if got := foldLocks(t, origin, rep.Seq); !reflect.DeepEqual(got, rep.Locks) {
						t.Fatalf("%s: replica on server %d at seq %d holds\n%+v\nthe records build\n%+v", what, host, rep.Seq, rep.Locks, got)
					}
				}
			}

			// dead/0 holds "a" and "b", and queues on "e" behind main/0.
			for _, req := range []LockReq{
				{Name: "a", Holder: "dead/0", Write: true, Seq: 1},
				{Name: "b", Holder: "dead/0", Seq: 2},
				{Name: "e", Holder: "main/0", Write: true, Seq: 1},
			} {
				if err := lock(req); err != nil {
					t.Fatal(err)
				}
			}
			deadQueued := make(chan error, 1)
			go func() { deadQueued <- lock(LockReq{Name: "e", Holder: "dead/0", Write: true, Seq: 3}) }()

			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					holder := fmt.Sprintf("h/%d", w)
					var seq uint64
					do := func(req LockReq) error {
						seq++
						req.Holder, req.Seq = holder, seq
						err := lock(req)
						if seq%3 == 0 { // the response was lost: the retry gets the same outcome
							if again := lock(req); fmt.Sprint(again) != fmt.Sprint(err) {
								t.Errorf("%+v: %v, retried %v", req, err, again)
							}
						}
						return err
					}
					// Even workers take "b" for reading, twice (recursion); odd ones
					// for writing.
					ops := []LockReq{{Name: "a", Write: true}, {Name: "a", Write: true, Release: true}}
					if w%2 == 0 {
						ops = append(ops, LockReq{Name: "b"}, LockReq{Name: "b"}, LockReq{Name: "b", Release: true}, LockReq{Name: "b", Release: true})
					} else {
						ops = append(ops, LockReq{Name: "b", Write: true}, LockReq{Name: "b", Write: true, Release: true})
					}
					for i := 0; i < 25; i++ {
						for _, op := range ops {
							if err := do(op); err != nil {
								t.Errorf("%s %+v: %v", holder, op, err)
								return
							}
						}
						if err := do(LockReq{Name: "c", Release: true}); !errors.Is(err, locks.ErrNotHeld) {
							t.Errorf("%s: releasing a lock it does not hold = %v", holder, err)
							return
						}
					}
				}(w)
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()

			for deadline := time.Now().Add(5 * time.Second); origin.locks.Waiting("e") != 1 || origin.locks.Waiting("a") == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("traffic never queued behind dead/0")
				}
			}
			check("queued behind a dead holder")
			if _, err := origin.Handle(RecoveryReq{App: "dead/0"}); err != nil {
				t.Fatal(err)
			}
			if err := <-deadQueued; !errors.Is(err, locks.ErrReleased) {
				t.Fatalf("dead/0's queued acquire = %v, want ErrReleased", err)
			}
			if err := lock(LockReq{Name: "e", Holder: "main/0", Write: true, Release: true, Seq: 2}); err != nil {
				t.Fatal(err)
			}
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
					check("mid-traffic")
				}
			}

			check("quiescent")
			own, err := origin.buildReplState()
			if err != nil {
				t.Fatal(err)
			}
			var freshest ReplState
			for host := 1; host <= k; host++ {
				rep := fetchReplica(t, g.Server(host), lockServer)
				if rep.Seq != own.Seq || !reflect.DeepEqual(rep.Locks, own.Locks) {
					t.Fatalf("replica on server %d at seq %d: %+v\norigin at seq %d: %+v", host, rep.Seq, rep.Locks, own.Seq, own.Locks)
				}
				if rep.Seq > freshest.Seq {
					freshest = rep
				}
			}

			spareAddr, err := g.AddSpare()
			if err != nil {
				t.Fatal(err)
			}
			spare := g.ServerAt(spareAddr)
			if _, err := spare.handleWlogInstall(WlogInstallReq{Slot: lockServer, State: freshest}); err != nil {
				t.Fatal(err)
			}
			if len(own.Locks.Dedup) != 5 {
				t.Fatalf("dedup rows %+v, want one per live holder", own.Locks.Dedup)
			}
			for _, row := range own.Locks.Dedup {
				req := LockReq{Name: row.Name, Holder: row.Holder, Write: row.Write, Release: row.Release, Seq: row.Seq}
				_, errO := origin.Handle(req)
				_, errS := spare.Handle(req)
				if fmt.Sprint(errO) != fmt.Sprint(errS) {
					t.Fatalf("retried %+v: origin %v, spare %v", req, errO, errS)
				}
			}
			if got := spare.locks.Export(nil); !reflect.DeepEqual(got, own.Locks) || !reflect.DeepEqual(origin.locks.Export(nil), own.Locks) {
				t.Fatalf("a retried LockReq ran again: spare %+v, origin %+v", got, origin.locks.Export(nil))
			}
		})
	}
}

// lockFaults are one failing operation of each kind a lost-ack retry
// can meet, each by a holder of its own (a dedup row keeps a holder's
// latest operation only): a release of a lock not held, and a write
// acquire of a lock the holder holds (after its first acquire). want is
// the sentinel each must match, wherever it is answered.
var lockFaults = []struct {
	before []LockReq
	req    LockReq
	want   error
}{
	{nil, LockReq{Name: "c", Holder: "sim/0", Release: true, Seq: 1}, locks.ErrNotHeld},
	{[]LockReq{{Name: "d", Holder: "sim/1", Write: true, Seq: 1}}, LockReq{Name: "d", Holder: "sim/1", Write: true, Seq: 2}, locks.ErrWriteHeld},
}

// TestLockFaultKeepsItsTypeOnFailover: a failed lock operation is typed
// on the lock server, and a promoted spare that installed the freshest
// replica answers its retry, out of the replicated dedup row, with the
// same typed outcome.
func TestLockFaultKeepsItsTypeOnFailover(t *testing.T) {
	g := replGroup(t, 3, 1)
	origin := g.Server(lockServer)
	for _, f := range lockFaults {
		for _, req := range f.before {
			if _, err := origin.Handle(req); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := origin.Handle(f.req); !errors.Is(err, f.want) {
			t.Fatalf("%+v on the lock server = %v, want %v", f.req, err, f.want)
		}
	}
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	spare := g.ServerAt(spareAddr)
	if _, err := spare.Handle(FencedReq{Token: 1, Req: WlogInstallReq{Slot: lockServer, State: fetchReplica(t, g.Server(1), lockServer)}}); err != nil {
		t.Fatal(err)
	}
	for _, f := range lockFaults {
		if _, err := spare.Handle(f.req); !errors.Is(err, f.want) {
			t.Fatalf("retried %+v on the promoted spare = %v, want %v", f.req, err, f.want)
		}
	}
}
