package staging

import (
	"bytes"
	"testing"

	"gospaces/internal/domain"
	"gospaces/internal/transport"
)

// The staging stack is dimension-generic below 3-D; these tests push
// 1-D and 2-D domains through the full put/log/replay path.

func TestTwoDimensionalStaging(t *testing.T) {
	global := domain.MustBBox(2, []int64{0, 0}, []int64{63, 63})
	g, err := StartGroup(transport.NewInProc(), "2d", Config{
		Global: global, NServers: 4, Bits: 3, ElemSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	prod, _ := g.NewClient("sim/0")
	cons, _ := g.NewClient("ana/0")
	defer prod.Close()
	defer cons.Close()

	data := fill(domain.BufLen(global, 4), 5)
	if err := prod.PutWithLog("plane", 1, global, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := cons.GetWithLog("plane", 1, global)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("2-D round trip: %v", err)
	}
	// Sub-rectangle.
	sub := domain.MustBBox(2, []int64{10, 20}, []int64{30, 40})
	gotSub, _, err := cons.GetWithLog("plane", 1, sub)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSub, domain.Extract(data, global, sub, 4)) {
		t.Fatal("2-D sub-read mismatch")
	}
	// Replay works in 2-D too.
	if _, err := cons.WorkflowRestart(); err != nil {
		t.Fatal(err)
	}
	replayed, v, err := cons.GetWithLog("plane", 1, global)
	if err != nil || v != 1 || !bytes.Equal(replayed, data) {
		t.Fatalf("2-D replay: %v", err)
	}
	sub2, v, err := cons.GetWithLog("plane", 1, sub)
	if err != nil || v != 1 || !bytes.Equal(sub2, domain.Extract(data, global, sub, 4)) {
		t.Fatalf("2-D sub replay: %v", err)
	}
}

func TestOneDimensionalStaging(t *testing.T) {
	global := domain.MustBBox(1, []int64{0}, []int64{1023})
	g, err := StartGroup(transport.NewInProc(), "1d", Config{
		Global: global, NServers: 2, Bits: 4, ElemSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	c, _ := g.NewClient("ts/0")
	defer c.Close()
	data := fill(domain.BufLen(global, 8), 9)
	if err := c.Put("series", 1, global, data); err != nil {
		t.Fatal(err)
	}
	window := domain.MustBBox(1, []int64{100}, []int64{199})
	got, _, err := c.Get("series", 1, window)
	if err != nil || !bytes.Equal(got, data[100*8:200*8]) {
		t.Fatalf("1-D window read: %v", err)
	}
	if cells := len(got) / 8; cells != 100 {
		t.Fatalf("1-D window read: %d cells, want 100", cells)
	}
}
