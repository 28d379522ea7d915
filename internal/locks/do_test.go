package locks

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// waitFor polls cond until it holds; it fails the test after 5 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// within runs fn and fails the test if it has not returned in 5 s.
func within(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still blocked after 5s", what)
		return nil
	}
}

// recorded returns a table whose reports are appended to *out (under
// the table's mutex) and numbered from 1.
func recorded(out *[]Record) *Manager {
	m := NewManager()
	m.OnRecord(func(r Record) int64 {
		*out = append(*out, r)
		return int64(len(*out))
	})
	return m
}

// TestReleaseAllFailsQueuedAcquire: workflow_restart releases a holder
// whose acquire is still queued behind another holder's write lock. The
// queued acquire belongs to the dead incarnation: it fails with
// ErrReleased instead of being granted when the lock frees, so the
// restarted incarnation starts with nothing held and the producer's next
// write lock is not dammed.
func TestReleaseAllFailsQueuedAcquire(t *testing.T) {
	for _, kind := range []Kind{Write, Read} {
		t.Run(kind.String(), func(t *testing.T) {
			m := NewManager()
			if err := m.Acquire("f", "sim/0", Write); err != nil {
				t.Fatal(err)
			}
			queued := make(chan error, 1)
			go func() { queued <- m.Acquire("f", "ana/0", kind) }()
			waitFor(t, "the acquire to queue", func() bool { return m.Waiting("f") == 1 })
			m.ReleaseAll("ana/0")
			if err := within(t, "the released holder's acquire", func() error { return <-queued }); !errors.Is(err, ErrReleased) {
				t.Fatalf("queued acquire of a released holder = %v, want ErrReleased", err)
			}
			if err := m.Release("f", "sim/0", Write); err != nil {
				t.Fatal(err)
			}
			if w, r := m.Holders("f"); w != "" || r != 0 {
				t.Fatalf("after the producer's release: writer %q, %d readers; want none", w, r)
			}
			// The restarted incarnation takes the lock afresh: no recursion
			// count, no "already holds", and one release frees it.
			if err := within(t, "the restarted acquire", func() error { return m.Acquire("f", "ana/0", kind) }); err != nil {
				t.Fatal(err)
			}
			if err := m.Release("f", "ana/0", kind); err != nil {
				t.Fatal(err)
			}
			if err := within(t, "the producer's next write lock", func() error { return m.Acquire("f", "sim/0", Write) }); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDoRetryWaitsForQueuedOriginal: a retry that arrives while the
// original acquire is queued gets the original's outcome and position;
// the operation runs and is reported once.
func TestDoRetryWaitsForQueuedOriginal(t *testing.T) {
	var reported []Record
	m := recorded(&reported)
	if _, err := m.Do(Record{Name: "f", Holder: "sim/0", Write: true, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	type outcome struct {
		pos int64
		err error
	}
	ana := Record{Name: "f", Holder: "ana/0", Write: true, Seq: 1}
	done := make(chan outcome, 2)
	run := func() { pos, err := m.Do(ana); done <- outcome{pos, err} }
	go run()
	waitFor(t, "ana/0's acquire to queue", func() bool { return m.Waiting("f") == 1 })
	go run()
	if _, err := m.Do(Record{Name: "f", Holder: "sim/0", Write: true, Release: true, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	a, b := <-done, <-done
	if a != b || a.err != nil || a.pos != 3 {
		t.Fatalf("original and retry = %+v, %+v; want both at position 3, nil", a, b)
	}
	if len(reported) != 3 {
		t.Fatalf("reported %+v: the acquire ran twice", reported)
	}
}

// TestDoReleaseAllFailsQueued: Do's ReleaseAll is reported; the acquire
// it fails is not, leaves no dedup row, and so does not shadow the
// restarted incarnation's Seq 1, which runs.
func TestDoReleaseAllFailsQueued(t *testing.T) {
	var reported []Record
	m := recorded(&reported)
	if _, err := m.Do(Record{Name: "f", Holder: "sim/0", Write: true, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	ana := Record{Name: "f", Holder: "ana/0", Write: true, Seq: 1}
	queued := make(chan error, 1)
	go func() { _, err := m.Do(ana); queued <- err }()
	waitFor(t, "ana/0's acquire to queue", func() bool { return m.Waiting("f") == 1 })
	if pos, err := m.Do(Record{Holder: "ana/0", ReleaseAll: true}); pos != 2 || err != nil {
		t.Fatalf("ReleaseAll = %d, %v", pos, err)
	}
	if err := <-queued; !errors.Is(err, ErrReleased) {
		t.Fatalf("queued acquire = %v, want ErrReleased", err)
	}
	if dedup := m.Export(nil).Dedup; len(dedup) != 1 || dedup[0].Holder != "sim/0" {
		t.Fatalf("dedup rows %+v, want sim/0's alone", dedup)
	}
	if _, err := m.Do(Record{Name: "f", Holder: "sim/0", Write: true, Release: true, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if err := within(t, "the restarted incarnation's Seq 1", func() error { _, err := m.Do(ana); return err }); err != nil {
		t.Fatal(err)
	}
	if w, _ := m.Holders("f"); w != "ana/0" || len(reported) != 4 || !reported[1].ReleaseAll || reported[3] != (Record{Name: "f", Holder: "ana/0", Write: true, Seq: 1}) {
		t.Fatalf("writer %q, reported %+v", w, reported)
	}
}

// TestApplyAndImportFollowDo: a table that applies the reports in order
// holds the origin's locks and dedup rows, and a table imported from
// the origin's state answers every retry of a dedup row like the origin
// — running nothing on either.
func TestApplyAndImportFollowDo(t *testing.T) {
	var reported []Record
	m := recorded(&reported)
	for _, r := range []Record{
		{Name: "a", Holder: "sim/0", Write: true, Seq: 1},
		{Name: "b", Holder: "ana/0", Seq: 1},
		{Name: "b", Holder: "ana/0", Seq: 2},              // recursion
		{Name: "b", Holder: "ana/0", Write: true, Seq: 3}, // upgrade: fails
		{Name: "c", Holder: "viz/0", Release: true, Seq: 1},
		{Name: "b", Holder: "viz/0", Seq: 2},
		{Name: "b", Holder: "viz/0", Release: true, Seq: 3},
		{Holder: "viz/0", ReleaseAll: true},
		{Name: "b", Holder: "ana/0", Release: true, Seq: 4},
		{Name: "b", Holder: "ana/0", Release: true, Seq: 4}, // a retry
	} {
		m.Do(r)
	}
	want := m.Export(nil)
	replica := NewManager()
	for _, r := range reported {
		replica.Apply(r)
	}
	if got := replica.Export(nil); !reflect.DeepEqual(got, want) {
		t.Fatalf("table rebuilt from the reports:\n got %+v\nwant %+v", got, want)
	}
	spare := NewManager()
	spare.Import(want, nil)
	n := len(reported)
	for _, row := range want.Dedup {
		_, errM := m.Do(row)
		_, errS := spare.Do(row)
		if fmt.Sprint(errM) != fmt.Sprint(errS) {
			t.Fatalf("retry of %+v: origin %v, imported table %v", row, errM, errS)
		}
	}
	if len(reported) != n || !reflect.DeepEqual(spare.Export(nil), want) || !reflect.DeepEqual(m.Export(nil), want) {
		t.Fatal("a retry of a dedup row ran again")
	}
}
