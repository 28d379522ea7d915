package gospaces_test

import (
	"bytes"
	"testing"

	"gospaces"
)

// TestPublicQuickstart exercises the public API the way the README's
// quickstart does: start staging, stage data with logging, checkpoint,
// fail, restart, replay.
func TestPublicQuickstart(t *testing.T) {
	global := gospaces.Box3(0, 0, 0, 31, 31, 15)
	g, err := gospaces.StartStaging(gospaces.StagingConfig{
		Global: global, NServers: 2, Bits: 2, ElemSize: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := g.NewClient("ana/0")
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	field := gospaces.NewField("temperature", global, 8)
	for ts := int64(1); ts <= 3; ts++ {
		if err := prod.PutWithLog("temperature", ts, global, field.Fill(ts, global)); err != nil {
			t.Fatal(err)
		}
		got, _, err := cons.GetWithLog("temperature", ts, global)
		if err != nil {
			t.Fatal(err)
		}
		if field.Verify(ts, global, got) >= 0 {
			t.Fatalf("ts %d corrupted", ts)
		}
		if ts == 1 {
			if _, err := cons.WorkflowCheck(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Consumer crashes and replays ts 2..3 while the producer moves on.
	replay, err := cons.WorkflowRestart()
	if err != nil {
		t.Fatal(err)
	}
	if replay == 0 {
		t.Fatal("nothing to replay")
	}
	if err := prod.PutWithLog("temperature", 4, global, field.Fill(4, global)); err != nil {
		t.Fatal(err)
	}
	for ts := int64(2); ts <= 4; ts++ {
		got, v, err := cons.GetWithLog("temperature", ts, global)
		if err != nil {
			t.Fatal(err)
		}
		if v != ts || field.Verify(ts, global, got) >= 0 {
			t.Fatalf("replayed ts %d: v=%d", ts, v)
		}
	}
}

func TestPublicWorkflowRun(t *testing.T) {
	res, err := gospaces.RunWorkflow(gospaces.WorkflowOptions{
		Scheme:    gospaces.Uncoordinated,
		Steps:     8,
		Global:    gospaces.Box3(0, 0, 0, 31, 31, 15),
		SimRanks:  2,
		AnaRanks:  2,
		NServers:  2,
		SimPeriod: 3,
		AnaPeriod: 4,
		Failures:  []gospaces.FailAt{{Component: "ana", Rank: 0, TS: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CorruptReads != 0 || res.Recoveries == 0 {
		t.Fatalf("result %+v", res)
	}
}

func TestPublicScaleModel(t *testing.T) {
	res, err := gospaces.RunScaleModel(gospaces.ScaleModelParams{
		Workflow: gospaces.TableII(),
		Machine:  gospaces.Cori(),
		Scheme:   gospaces.Uncoordinated,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTime <= 0 {
		t.Fatalf("total time %v", res.TotalTime)
	}
}

func TestPublicTCPStaging(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		srv, err := gospaces.Serve("127.0.0.1:0", i)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	global := gospaces.Box3(0, 0, 0, 15, 15, 7)
	pool, err := gospaces.Connect(addrs, gospaces.StagingConfig{
		Global: global, NServers: 2, Bits: 2, ElemSize: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := pool.NewClient("cli/0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	data := make([]byte, 16*16*8*4)
	for i := range data {
		data[i] = byte(i)
	}
	if err := c.Put("f", 1, global, data); err != nil {
		t.Fatal(err)
	}
	got, _, err := c.Get("f", 1, global)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("tcp round trip: %v", err)
	}
}
