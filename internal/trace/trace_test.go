package trace

import (
	"strings"
	"sync"
	"testing"
)

func TestAddAndSnapshotOrder(t *testing.T) {
	b := New(10)
	for i := int64(1); i <= 5; i++ {
		b.Add(Record{Op: OpPut, Version: i})
	}
	snap := b.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("len %d", len(snap))
	}
	for i, r := range snap {
		if r.Version != int64(i+1) || r.Seq != uint64(i) {
			t.Fatalf("snap[%d] = %+v", i, r)
		}
		if r.At.IsZero() {
			t.Fatal("timestamp not stamped")
		}
	}
}

func TestRingEviction(t *testing.T) {
	b := New(4)
	for i := int64(1); i <= 10; i++ {
		b.Add(Record{Op: OpGet, Version: i})
	}
	if b.Len() != 4 || b.Total() != 10 {
		t.Fatalf("len=%d total=%d", b.Len(), b.Total())
	}
	snap := b.Snapshot()
	want := []int64{7, 8, 9, 10}
	for i, w := range want {
		if snap[i].Version != w {
			t.Fatalf("snap = %v", snap)
		}
	}
}

func TestNilAndZeroBufferSafe(t *testing.T) {
	var b *Buffer
	b.Add(Record{Op: OpPut}) // must not panic
	if b.Len() != 0 || b.Total() != 0 || b.Snapshot() != nil {
		t.Fatal("nil buffer misbehaves")
	}
	var zero Buffer
	zero.Add(Record{Op: OpPut})
	if zero.Len() != 0 {
		t.Fatal("zero buffer retained a record")
	}
}

func TestMinimumCapacity(t *testing.T) {
	b := New(0)
	b.Add(Record{Op: OpPut, Version: 1})
	b.Add(Record{Op: OpPut, Version: 2})
	if b.Len() != 1 || b.Snapshot()[0].Version != 2 {
		t.Fatalf("capacity clamp broken: %v", b.Snapshot())
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Seq: 3, Op: OpSuppressedPut, App: "sim/0", Name: "f", Version: 7, Bytes: 42, Detail: "x"}
	s := r.String()
	for _, want := range []string{"#3", "put-suppressed", "app=sim/0", "name=f", "v=7", "bytes=42", "x"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
}

func TestOpStrings(t *testing.T) {
	ops := map[Op]string{
		OpPut: "put", OpGet: "get", OpSuppressedPut: "put-suppressed",
		OpReplayGet: "get-replay", OpCheckpoint: "checkpoint",
		OpRecovery: "recovery", OpGC: "gc", OpLock: "lock",
	}
	for op, want := range ops {
		if op.String() != want {
			t.Fatalf("%d -> %q", op, op.String())
		}
	}
	if Op(99).String() != "op(99)" {
		t.Fatal("unknown op string")
	}
}

func TestDump(t *testing.T) {
	b := New(4)
	if rs, total := b.Dump(); rs != nil || total != 0 {
		t.Fatalf("empty dump: %v %d", rs, total)
	}
	for i := int64(1); i <= 10; i++ {
		b.Add(Record{Op: OpPut, Version: i})
	}
	rs, total := b.Dump()
	if total != 10 || len(rs) != 4 {
		t.Fatalf("dump: %d records, total %d", len(rs), total)
	}
	for i, want := range []int64{7, 8, 9, 10} {
		if rs[i].Version != want {
			t.Fatalf("dump order: %v", rs)
		}
	}
}

// TestConcurrentAppendDump hammers Add against Dump under -race: the
// dump must always be internally consistent (strictly increasing
// sequence numbers, total >= highest seq seen) however the appends
// interleave, because the copy happens under one lock acquisition.
func TestConcurrentAppendDump(t *testing.T) {
	b := New(64)
	done := make(chan struct{})
	var appenders, dumpers sync.WaitGroup
	for g := 0; g < 4; g++ {
		appenders.Add(1)
		go func(g int) {
			defer appenders.Done()
			for i := 0; i < 2000; i++ {
				b.Add(Record{Op: OpPut, Version: int64(g*2000 + i)})
			}
		}(g)
	}
	for d := 0; d < 2; d++ {
		dumpers.Add(1)
		go func() {
			defer dumpers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rs, total := b.Dump()
				for i := 1; i < len(rs); i++ {
					if rs[i].Seq <= rs[i-1].Seq {
						t.Errorf("dump tore: seq %d after %d", rs[i].Seq, rs[i-1].Seq)
						return
					}
				}
				if len(rs) > 0 && rs[len(rs)-1].Seq >= total {
					t.Errorf("dump total %d behind seq %d", total, rs[len(rs)-1].Seq)
					return
				}
			}
		}()
	}
	appenders.Wait()
	close(done)
	dumpers.Wait()
	if b.Total() != 8000 {
		t.Fatalf("total %d", b.Total())
	}
}

func TestConcurrentAdd(t *testing.T) {
	b := New(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Add(Record{Op: OpPut})
			}
		}()
	}
	wg.Wait()
	if b.Total() != 800 || b.Len() != 128 {
		t.Fatalf("total=%d len=%d", b.Total(), b.Len())
	}
	// Sequence numbers in a snapshot are strictly increasing.
	snap := b.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i].Seq <= snap[i-1].Seq {
			t.Fatal("snapshot out of order")
		}
	}
}
