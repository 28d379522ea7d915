// Package store is the per-server versioned object store of the staging
// service. Objects are immutable byte arrays identified by
// (name, version, bbox), where version is the workflow timestep that
// produced them. The store answers bounding-box intersection queries at
// an exact version or at the newest version at-or-below a bound, and it
// keeps byte-accurate memory accounting — the quantity Figure 9(c)/(d)
// of the paper reports.
package store

import (
	"fmt"
	"hash/crc32"
	"sort"
	"sync"

	"gospaces/internal/domain"
)

// Object is one immutable staged array region.
type Object struct {
	Name    string
	Version int64
	BBox    domain.BBox
	// ElemSize is the byte width of one grid cell.
	ElemSize int
	// Data is the row-major payload covering BBox.
	Data []byte
	// CRC is Checksum(Data) for logged objects, taken at ingest; every
	// hop that keeps or re-serves a logged payload checks it (Verify).
	CRC uint32
	// Logged marks objects ingested through the crash-consistent path;
	// the log-replication layer ships exactly these to peer servers.
	Logged bool
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum is a logged payload's CRC-32C (Castagnoli), the one
// integrity rule of the bytes a replaying reader is re-served: taken
// once at ingest, carried with the object over the replication stream,
// in replica snapshots and in the cold tier, and checked by Verify.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// Verify reports an error when the payload does not match its CRC.
func (o *Object) Verify() error {
	if got := Checksum(o.Data); got != o.CRC {
		return fmt.Errorf("store: logged payload %q v%d %v fails its CRC (%#x, carried %#x)", o.Name, o.Version, o.BBox, got, o.CRC)
	}
	return nil
}

// Bytes returns the payload size in bytes.
func (o *Object) Bytes() int64 { return int64(len(o.Data)) }

type versionSlot struct {
	objs []*Object
}

type nameIndex struct {
	versions map[int64]*versionSlot
	sorted   []int64 // ascending versions present
}

// Store is a thread-safe versioned object store.
type Store struct {
	mu    sync.RWMutex
	names map[string]*nameIndex
	bytes int64
	count int
}

// New returns an empty store.
func New() *Store {
	return &Store{names: make(map[string]*nameIndex)}
}

// Put inserts an object. Inserting an object with the same
// (name, version) and an identical bbox replaces the previous payload
// (last-writer-wins, DataSpaces' update semantics).
func (s *Store) Put(o *Object) error {
	_, err := s.PutAccounted(o)
	return err
}

// PutAccounted inserts like Put and returns the net change in resident
// bytes — the object's size, minus any replaced equal-bbox payload.
// The admission-control layer charges this delta to the object's
// tenant.
func (s *Store) PutAccounted(o *Object) (int64, error) {
	if o.Name == "" {
		return 0, fmt.Errorf("store: object with empty name")
	}
	if o.BBox.IsEmpty() {
		return 0, fmt.Errorf("store: object %q with empty bbox", o.Name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ni, ok := s.names[o.Name]
	if !ok {
		ni = &nameIndex{versions: make(map[int64]*versionSlot)}
		s.names[o.Name] = ni
	}
	vs, ok := ni.versions[o.Version]
	if !ok {
		vs = &versionSlot{}
		ni.versions[o.Version] = vs
		i := sort.Search(len(ni.sorted), func(i int) bool { return ni.sorted[i] >= o.Version })
		ni.sorted = append(ni.sorted, 0)
		copy(ni.sorted[i+1:], ni.sorted[i:])
		ni.sorted[i] = o.Version
	}
	for i, ex := range vs.objs {
		if ex.BBox.Equal(o.BBox) {
			delta := o.Bytes() - ex.Bytes()
			s.bytes += delta
			vs.objs[i] = o
			return delta, nil
		}
	}
	vs.objs = append(vs.objs, o)
	s.bytes += o.Bytes()
	s.count++
	return o.Bytes(), nil
}

// GetVersion returns all objects of name at exactly version whose boxes
// intersect q.
func (s *Store) GetVersion(name string, version int64, q domain.BBox) []*Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.names[name]
	if !ok {
		return nil
	}
	vs, ok := ni.versions[version]
	if !ok {
		return nil
	}
	var out []*Object
	for _, o := range vs.objs {
		if o.BBox.Intersects(q) {
			out = append(out, o)
		}
	}
	return out
}

// VersionObjects returns all objects of name at exactly version,
// regardless of bounding box — the spill path demotes whole versions,
// not query intersections.
func (s *Store) VersionObjects(name string, version int64) []*Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.names[name]
	if !ok {
		return nil
	}
	vs, ok := ni.versions[version]
	if !ok {
		return nil
	}
	return append([]*Object(nil), vs.objs...)
}

// LatestVersion returns the newest version present for name that is
// <= atMost (or the newest overall if atMost < 0), and whether any
// version exists.
func (s *Store) LatestVersion(name string, atMost int64) (int64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.names[name]
	if !ok || len(ni.sorted) == 0 {
		return 0, false
	}
	if atMost < 0 {
		return ni.sorted[len(ni.sorted)-1], true
	}
	i := sort.Search(len(ni.sorted), func(i int) bool { return ni.sorted[i] > atMost })
	if i == 0 {
		return 0, false
	}
	return ni.sorted[i-1], true
}

// Versions returns the ascending list of versions present for name.
func (s *Store) Versions(name string) []int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ni, ok := s.names[name]
	if !ok {
		return nil
	}
	return append([]int64(nil), ni.sorted...)
}

// DropBelow removes all versions of name strictly older than keep,
// except that the newest version overall is always retained when
// keepLatest is set (the staging area must keep the latest copy for
// normal reads; paper §III-A2). It returns the number of bytes freed.
func (s *Store) DropBelow(name string, keep int64, keepLatest bool) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ni, ok := s.names[name]
	if !ok {
		return 0
	}
	var freed int64
	var remain []int64
	latest := int64(-1)
	if len(ni.sorted) > 0 {
		latest = ni.sorted[len(ni.sorted)-1]
	}
	for _, v := range ni.sorted {
		if v < keep && !(keepLatest && v == latest) {
			for _, o := range ni.versions[v].objs {
				freed += o.Bytes()
				s.count--
			}
			delete(ni.versions, v)
			continue
		}
		remain = append(remain, v)
	}
	ni.sorted = remain
	s.bytes -= freed
	return freed
}

// DropObjects removes exactly the given objects of (name, version),
// matched by identity — an object that was replaced or never listed
// stays resident — and returns the bytes freed. The spill path uses it
// to drop what the cold tier committed and nothing else.
func (s *Store) DropObjects(name string, version int64, objs []*Object) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ni, ok := s.names[name]
	if !ok {
		return 0
	}
	vs, ok := ni.versions[version]
	if !ok {
		return 0
	}
	drop := make(map[*Object]bool, len(objs))
	for _, o := range objs {
		drop[o] = true
	}
	var freed int64
	keep := vs.objs[:0]
	for _, o := range vs.objs {
		if drop[o] {
			freed += o.Bytes()
			s.count--
			continue
		}
		keep = append(keep, o)
	}
	clear(vs.objs[len(keep):]) // release the dropped objects to the GC
	vs.objs = keep
	if len(keep) == 0 {
		delete(ni.versions, version)
		for i, v := range ni.sorted {
			if v == version {
				ni.sorted = append(ni.sorted[:i], ni.sorted[i+1:]...)
				break
			}
		}
	}
	s.bytes -= freed
	return freed
}

// Names returns all object names present, sorted.
func (s *Store) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]string, 0, len(s.names))
	for n, ni := range s.names {
		if len(ni.sorted) > 0 {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// BytesUsed returns the total payload bytes resident.
func (s *Store) BytesUsed() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Objects returns the number of objects resident.
func (s *Store) Objects() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Export returns every resident object in deterministic order (by
// name, then version, then bbox insertion order). The returned slice
// holds the store's own immutable objects; callers must not mutate
// payloads.
func (s *Store) Export() []*Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.names))
	for n, ni := range s.names {
		if len(ni.sorted) > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	out := make([]*Object, 0, s.count)
	for _, n := range names {
		ni := s.names[n]
		for _, v := range ni.sorted {
			out = append(out, ni.versions[v].objs...)
		}
	}
	return out
}

// Import replaces the store's entire contents with objs (used when a
// promoted spare restores a dead server's replicated state).
func (s *Store) Import(objs []*Object) error {
	fresh := New()
	for _, o := range objs {
		if err := fresh.Put(o); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.names = fresh.names
	s.bytes = fresh.bytes
	s.count = fresh.count
	return nil
}

// KeepOnly removes every version of name except version, returning the
// bytes freed. It implements original (non-logged) staging semantics:
// the most recently put version is the only one retained, which also
// lets a globally rolled-back workflow rewind the staged version
// sequence by re-putting an older timestep.
func (s *Store) KeepOnly(name string, version int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	ni, ok := s.names[name]
	if !ok {
		return 0
	}
	var freed int64
	var remain []int64
	for _, v := range ni.sorted {
		if v == version {
			remain = append(remain, v)
			continue
		}
		for _, o := range ni.versions[v].objs {
			freed += o.Bytes()
			s.count--
		}
		delete(ni.versions, v)
	}
	ni.sorted = remain
	s.bytes -= freed
	return freed
}
