package tier

import (
	"fmt"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/store"
)

// BenchmarkSpillPromote cycles one 64 KiB logged object through the
// full cold-tier round trip — twin-generation CRC'd records, manifest
// commit, promote, reclaim — the unit of work a spilling put or a
// replay read of a spilled version pays.
func BenchmarkSpillPromote(b *testing.B) {
	tr := New(pfs.NewStore(), "0")
	o := obj("sim/f", 1, 64<<10)
	b.SetBytes(int64(len(o.Data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Version = int64(i + 1)
		if err := tr.Spill([]*store.Object{o}); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.Promote(o.Name, o.Version); err != nil {
			b.Fatal(err)
		}
	}
}

// version builds one version of n objects of size bytes each, in
// disjoint boxes — what a server holds of one put of the field.
func version(name string, v int64, n, size int) []*store.Object {
	objs := make([]*store.Object, n)
	for i := range objs {
		objs[i] = obj(name, v, size)
		objs[i].BBox = domain.Box3(int64(4*i), 0, 0, int64(4*i+3), 3, 0)
	}
	return objs
}

// BenchmarkSpillVersion is the bench/ restart-spill shape at one
// server: a version of 32 × 16 KiB objects spilled as one group commit,
// into an empty tier and into one already holding 11 versions. The two
// may differ by the manifest's own encode of the older entries and by
// nothing else: a per-object commit shows up here as a large gap. Each
// is read over the in-memory backend, where the tier's own work is all
// there is, and over a directory, where a spill also pays the file
// system for every record and manifest generation it writes.
func BenchmarkSpillVersion(b *testing.B) {
	const nobj, size = 32, 16 << 10
	for _, backend := range []string{"mem", "dir"} {
		for _, prior := range []int64{0, 11} {
			b.Run(fmt.Sprintf("backend=%s/prior=%d", backend, prior), func(b *testing.B) {
				var be Backend = pfs.NewStore()
				if backend == "dir" {
					dir, err := pfs.NewDirStore(b.TempDir())
					if err != nil {
						b.Fatal(err)
					}
					be = dir
				}
				tr := New(be, "0")
				for v := int64(1); v <= prior; v++ {
					if err := tr.Spill(version("sim/old", v, nobj, size)); err != nil {
						b.Fatal(err)
					}
				}
				objs := version("sim/f", 1, nobj, size)
				b.SetBytes(nobj * size)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := tr.Spill(objs); err != nil {
						b.Fatal(err)
					}
					b.StopTimer()
					tr.DropBelow("sim/f", 2)
					b.StartTimer()
				}
			})
		}
	}
}

// BenchmarkScrub measures the CRC verification pass over a populated
// tier, per spilled entry.
func BenchmarkScrub(b *testing.B) {
	tr := New(pfs.NewStore(), "0")
	const entries = 64
	for v := int64(1); v <= entries; v++ {
		if err := tr.Spill([]*store.Object{obj("sim/f", v, 4<<10)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := tr.Scrub()
		if rep.Lost != 0 || rep.Checked == 0 {
			b.Fatalf("scrub report %+v", rep)
		}
	}
}
