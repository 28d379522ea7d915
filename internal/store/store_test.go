package store

import (
	"sync"
	"testing"

	"gospaces/internal/domain"
)

func obj(name string, version int64, b domain.BBox, n int) *Object {
	return &Object{Name: name, Version: version, BBox: b, ElemSize: 1, Data: make([]byte, n)}
}

func TestPutGetVersion(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 9, 9, 9)
	if err := s.Put(obj("temp", 1, b, 1000)); err != nil {
		t.Fatal(err)
	}
	got := s.GetVersion("temp", 1, b)
	if len(got) != 1 || got[0].Version != 1 {
		t.Fatalf("got %v", got)
	}
	if s.GetVersion("temp", 2, b) != nil {
		t.Fatal("phantom version")
	}
	if s.GetVersion("nope", 1, b) != nil {
		t.Fatal("phantom name")
	}
}

func TestPutValidation(t *testing.T) {
	s := New()
	if err := s.Put(&Object{Name: "", BBox: domain.Box3(0, 0, 0, 1, 1, 1)}); err == nil {
		t.Fatal("empty name accepted")
	}
	if err := s.Put(&Object{Name: "x"}); err == nil {
		t.Fatal("empty bbox accepted")
	}
}

func TestPutReplaceSameBox(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	_ = s.Put(obj("x", 1, b, 100))
	_ = s.Put(obj("x", 1, b, 300))
	if s.BytesUsed() != 300 || s.Objects() != 1 {
		t.Fatalf("bytes=%d objects=%d", s.BytesUsed(), s.Objects())
	}
}

func TestIntersectionQuery(t *testing.T) {
	s := New()
	// Two rank chunks side by side.
	_ = s.Put(obj("f", 3, domain.Box3(0, 0, 0, 4, 9, 9), 10))
	_ = s.Put(obj("f", 3, domain.Box3(5, 0, 0, 9, 9, 9), 10))
	q := domain.Box3(3, 0, 0, 6, 9, 9)
	got := s.GetVersion("f", 3, q)
	if len(got) != 2 {
		t.Fatalf("query hit %d objects, want 2", len(got))
	}
	corner := s.GetVersion("f", 3, domain.Box3(0, 0, 0, 1, 1, 1))
	if len(corner) != 1 {
		t.Fatalf("corner hit %d", len(corner))
	}
}

func TestLatestVersion(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	for _, v := range []int64{5, 1, 9, 3} {
		_ = s.Put(obj("f", v, b, 8))
	}
	if v, ok := s.LatestVersion("f", -1); !ok || v != 9 {
		t.Fatalf("latest = %d,%v", v, ok)
	}
	if v, ok := s.LatestVersion("f", 4); !ok || v != 3 {
		t.Fatalf("latest<=4 = %d,%v", v, ok)
	}
	if _, ok := s.LatestVersion("f", 0); ok {
		t.Fatal("found version <= 0")
	}
	if _, ok := s.LatestVersion("nope", -1); ok {
		t.Fatal("found version for absent name")
	}
	vs := s.Versions("f")
	want := []int64{1, 3, 5, 9}
	for i, v := range want {
		if vs[i] != v {
			t.Fatalf("versions = %v", vs)
		}
	}
}

func TestDropBelowKeepLatest(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	for v := int64(1); v <= 5; v++ {
		_ = s.Put(obj("f", v, b, 100))
	}
	freed := s.DropBelow("f", 10, true) // everything is old, keep latest
	if freed != 400 {
		t.Fatalf("freed %d, want 400", freed)
	}
	if v, ok := s.LatestVersion("f", -1); !ok || v != 5 {
		t.Fatal("latest version evicted")
	}
	if s.BytesUsed() != 100 || s.Objects() != 1 {
		t.Fatalf("bytes=%d objects=%d", s.BytesUsed(), s.Objects())
	}
}

func TestDropBelowNoKeepLatest(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	for v := int64(1); v <= 3; v++ {
		_ = s.Put(obj("f", v, b, 10))
	}
	if freed := s.DropBelow("f", 3, false); freed != 20 {
		t.Fatalf("freed %d", freed)
	}
	if got := s.Versions("f"); len(got) != 1 || got[0] != 3 {
		t.Fatalf("versions = %v", got)
	}
}

func TestDropObjects(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	b2 := domain.Box3(2, 0, 0, 3, 1, 1)
	a1, a2 := obj("f", 1, b, 10), obj("f", 1, b2, 7)
	_ = s.Put(a1)
	_ = s.Put(a2)
	_ = s.Put(obj("f", 2, b, 10))
	// Only the listed object goes; its sibling keeps the version alive.
	if freed := s.DropObjects("f", 1, []*Object{a1}); freed != 10 {
		t.Fatalf("freed %d", freed)
	}
	if got := s.VersionObjects("f", 1); len(got) != 1 || got[0] != a2 {
		t.Fatalf("survivors = %v", got)
	}
	if freed := s.DropObjects("f", 1, []*Object{a1}); freed != 0 {
		t.Fatal("double drop freed bytes")
	}
	// A replaced object is matched by identity, not by bbox.
	if freed := s.DropObjects("f", 1, []*Object{obj("f", 1, b2, 7)}); freed != 0 {
		t.Fatal("drop of a stranger freed bytes")
	}
	if freed := s.DropObjects("ghost", 1, []*Object{a1}); freed != 0 {
		t.Fatal("ghost drop freed bytes")
	}
	if freed := s.DropObjects("f", 1, []*Object{a2}); freed != 7 {
		t.Fatalf("freed %d", freed)
	}
	if got := s.Versions("f"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("versions = %v", got)
	}
	if s.BytesUsed() != 10 || s.Objects() != 1 {
		t.Fatalf("accounting: %d bytes, %d objects", s.BytesUsed(), s.Objects())
	}
}

func TestNames(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	_ = s.Put(obj("zeta", 1, b, 1))
	_ = s.Put(obj("alpha", 1, b, 1))
	names := s.Names()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Fatalf("names = %v", names)
	}
}

func TestDeclaredBytesAccounting(t *testing.T) {
	s := New()
	o := &Object{Name: "sim", Version: 1, BBox: domain.Box3(0, 0, 0, 1, 1, 1), DeclaredBytes: 1 << 30}
	if err := s.Put(o); err != nil {
		t.Fatal(err)
	}
	if s.BytesUsed() != 1<<30 {
		t.Fatalf("bytes = %d", s.BytesUsed())
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	b := domain.Box3(0, 0, 0, 9, 9, 9)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for v := int64(0); v < 50; v++ {
				_ = s.Put(obj("f", v, domain.Box3(int64(g)*10, 0, 0, int64(g)*10+9, 9, 9), 16))
				s.GetVersion("f", v, b)
				s.LatestVersion("f", -1)
			}
		}(g)
	}
	wg.Wait()
	if s.Objects() != 8*50 {
		t.Fatalf("objects = %d", s.Objects())
	}
}

func TestKeepOnly(t *testing.T) {
	s := New()
	b := domain.Box3(0, 0, 0, 1, 1, 1)
	for v := int64(1); v <= 4; v++ {
		_ = s.Put(obj("f", v, b, 100))
	}
	if freed := s.KeepOnly("f", 2); freed != 300 {
		t.Fatalf("freed %d, want 300", freed)
	}
	if got := s.Versions("f"); len(got) != 1 || got[0] != 2 {
		t.Fatalf("versions = %v", got)
	}
	if s.BytesUsed() != 100 || s.Objects() != 1 {
		t.Fatalf("bytes=%d objects=%d", s.BytesUsed(), s.Objects())
	}
	// Keeping an absent version clears everything.
	if freed := s.KeepOnly("f", 99); freed != 100 {
		t.Fatalf("freed %d", freed)
	}
	if got := s.Versions("f"); len(got) != 0 {
		t.Fatalf("versions = %v", got)
	}
	if freed := s.KeepOnly("ghost", 1); freed != 0 {
		t.Fatal("ghost keep freed bytes")
	}
}
