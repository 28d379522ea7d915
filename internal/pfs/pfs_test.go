package pfs

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"gospaces/internal/sim"
)

func TestStoreWriteReadDelete(t *testing.T) {
	s := NewStore()
	s.Write("ckpt/sim/1", []byte{1, 2, 3})
	got, ok := s.Read("ckpt/sim/1")
	if !ok || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read = %v %v", got, ok)
	}
	if _, ok := s.Read("missing"); ok {
		t.Fatal("phantom read")
	}
	// Replacement accounts bytes correctly.
	s.Write("ckpt/sim/1", []byte{9})
	if s.Bytes() != 1 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
	s.Delete("ckpt/sim/1")
	if s.Bytes() != 0 {
		t.Fatalf("bytes after delete = %d", s.Bytes())
	}
	s.Delete("missing") // no-op
	w, r := s.Stats()
	if w != 2 || r != 1 {
		t.Fatalf("stats = %d,%d", w, r)
	}
}

func TestStoreIsolatesCallerBuffer(t *testing.T) {
	s := NewStore()
	buf := []byte{1, 2, 3}
	s.Write("k", buf)
	buf[0] = 99
	got, _ := s.Read("k")
	if got[0] != 1 {
		t.Fatal("store aliases caller buffer")
	}
	got[1] = 99
	got2, _ := s.Read("k")
	if got2[1] != 2 {
		t.Fatal("read aliases store buffer")
	}
}

func TestStoreConcurrent(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := string(rune('a' + i))
			for j := 0; j < 100; j++ {
				s.Write(key, make([]byte, 10))
				s.Read(key)
			}
		}(i)
	}
	wg.Wait()
	if s.Bytes() != 80 {
		t.Fatalf("bytes = %d", s.Bytes())
	}
}

func TestSimPFSChargesTime(t *testing.T) {
	env := sim.NewEnv()
	f := NewSimPFS(env, 100, 0) // 100 B/s
	var done time.Duration
	env.Spawn("writer", func(p *sim.Proc) {
		if err := f.WriteCheckpoint(p, 200); err != nil {
			t.Errorf("write: %v", err)
		}
		done = p.Now()
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if done != 2*time.Second {
		t.Fatalf("write finished at %v", done)
	}
}

func TestSimPFSContention(t *testing.T) {
	env := sim.NewEnv()
	f := NewSimPFS(env, 100, 0)
	var last time.Duration
	for i := 0; i < 3; i++ {
		env.Spawn("writer", func(p *sim.Proc) {
			if err := f.WriteCheckpoint(p, 100); err != nil {
				t.Errorf("write: %v", err)
			}
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
	if last != 3*time.Second {
		t.Fatalf("3 concurrent 1s writes finished at %v", last)
	}
}

func TestSimPFSValidation(t *testing.T) {
	env := sim.NewEnv()
	f := NewSimPFS(env, 100, 0)
	env.Spawn("w", func(p *sim.Proc) {
		if err := f.WriteCheckpoint(p, -1); err == nil {
			t.Error("negative write accepted")
		}
		if err := f.ReadCheckpoint(p, -1); err == nil {
			t.Error("negative read accepted")
		}
	})
	if err := env.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStorePartialWriteAtOffset(t *testing.T) {
	s := NewStore()
	payload := []byte("0123456789")
	for _, off := range []int{0, 1, 3, 9} {
		s.FailNextWriteAt(FaultPartial, off)
		if err := s.Write("k", payload); err != nil {
			t.Fatalf("off %d: %v", off, err)
		}
		got, ok := s.Read("k")
		if !ok || len(got) != off {
			t.Fatalf("off %d: stored %d bytes", off, len(got))
		}
		if !bytes.Equal(got, payload[:off]) {
			t.Fatalf("off %d: prefix mismatch %q", off, got)
		}
	}
	// The fault is one-shot: the next write is intact.
	if err := s.Write("k", payload); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Read("k"); len(got) != len(payload) {
		t.Fatalf("fault not disarmed: %d bytes", len(got))
	}
}

func TestStoreBitFlipAtOffset(t *testing.T) {
	s := NewStore()
	payload := []byte{1, 2, 3, 4}
	s.FailNextWriteAt(FaultBitFlip, 3)
	s.Write("k", payload)
	got, _ := s.Read("k")
	if got[3] == payload[3] || got[0] != payload[0] {
		t.Fatalf("flip at 3: got %v", got)
	}
}

func TestStoreENOSPCFault(t *testing.T) {
	s := NewStore()
	s.Write("k", []byte{1, 2})
	s.FailNextWrite(FaultENOSPC)
	if err := s.Write("k", []byte{9, 9, 9}); err != ErrNoSpace {
		t.Fatalf("err = %v", err)
	}
	// The previous object survives a failed write.
	got, ok := s.Read("k")
	if !ok || !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("old object lost: %v %v", got, ok)
	}
	if err := s.Write("k", []byte{9}); err != nil {
		t.Fatalf("fault not one-shot: %v", err)
	}
}

func TestStoreRenameAndList(t *testing.T) {
	s := NewStore()
	s.Write("t/m.tmp", []byte{1})
	s.Write("t/other", []byte{2})
	if err := s.Rename("t/m.tmp", "t/m"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Read("t/m.tmp"); ok {
		t.Fatal("old name survives rename")
	}
	got, ok := s.Read("t/m")
	if !ok || got[0] != 1 {
		t.Fatalf("renamed object: %v %v", got, ok)
	}
	names := s.List("t/")
	if len(names) != 2 || names[0] != "t/m" || names[1] != "t/other" {
		t.Fatalf("list = %v", names)
	}
	if err := s.Rename("missing", "x"); err == nil {
		t.Fatal("rename of missing object succeeded")
	}
	// Rename over an existing object keeps byte accounting exact.
	s.Write("t/dst", []byte{1, 2, 3})
	before := s.Bytes()
	s.Write("t/src", []byte{9})
	if err := s.Rename("t/src", "t/dst"); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != before-3+1 {
		t.Fatalf("bytes after clobbering rename = %d", s.Bytes())
	}
}

func TestStoreCorrupt(t *testing.T) {
	s := NewStore()
	s.Write("k", []byte{1, 2, 3, 4})
	if !s.Corrupt("k", 2) {
		t.Fatal("corrupt reported no damage")
	}
	got, _ := s.Read("k")
	if got[2] == 3 {
		t.Fatal("payload not corrupted")
	}
	if s.Corrupt("missing", 0) {
		t.Fatal("corrupted a phantom")
	}
}

func TestStoreSlowIO(t *testing.T) {
	s := NewStore()
	s.SetSlowIO(20 * time.Millisecond)
	start := time.Now()
	s.Write("k", []byte{1})
	s.Read("k")
	if d := time.Since(start); d < 40*time.Millisecond {
		t.Fatalf("slow I/O not applied: %v", d)
	}
	s.SetSlowIO(0)
}

func TestDirStoreRoundTrip(t *testing.T) {
	d, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write("tier/0/o/1/g0", []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := d.Write("tier/0/a.tmp", []byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := d.Rename("tier/0/a.tmp", "tier/0/a"); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Read("tier/0/o/1/g0")
	if !ok || !bytes.Equal(got, []byte{1, 2}) {
		t.Fatalf("read = %v %v", got, ok)
	}
	names := d.List("tier/0/")
	if len(names) != 2 || names[0] != "tier/0/a" {
		t.Fatalf("list = %v", names)
	}
	d.Delete("tier/0/o/1/g0")
	if _, ok := d.Read("tier/0/o/1/g0"); ok {
		t.Fatal("delete left object behind")
	}
	if _, err := NewDirStore(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
