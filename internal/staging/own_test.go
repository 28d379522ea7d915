package staging

import (
	"bytes"
	"fmt"
	"testing"

	"gospaces/internal/ckpt"
	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/store"
	"gospaces/internal/transport"
	"gospaces/internal/wlog"
)

// TestHandlersOwnWhatTheyKeep holds the one ownership rule where it
// lives, in the handlers: every request whose bytes the server keeps
// past the call is alias-decoded (as the transport decodes a large
// frame), handled, and its buffer zeroed, as the transport recycles it.
// What the server kept — read back by a Get or a ShardGet, out of a
// hosted replica's store, or out of an installed store — must be the
// bytes sent, with the CRCs they were sent with. Each case is one
// handler's copy: the put's ingest copy, the shard's, the replica
// record's (bare and in an envelope) and the snapshot objects' (a
// hosted replica's install and a promoted spare's). And each carrier of
// a logged object — those four and a cold-tier record — refuses one
// whose payload has a byte flipped under its CRC, keeping nothing: the
// sender's clean re-send is then kept, and a replica installs. A put
// record that carries no object is refused the same way: the object is
// the record's one account of what was put.
func TestHandlersOwnWhatTheyKeep(t *testing.T) {
	box := domain.Box3(0, 0, 0, 31, 31, 15)
	big := fill(domain.BufLen(box, 1), 7)
	good := &store.Object{Name: "f", Version: 1, BBox: box, ElemSize: 1, Data: big, CRC: store.Checksum(big), Logged: true}
	flipped := *good
	flipped.Data = bytes.Clone(big)
	flipped.Data[len(big)/2] ^= 1
	wl, err := wlog.New().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	apply := func(o *store.Object) ReplApplyReq {
		return ReplApplyReq{Epoch: 1, Slot: 1, Records: []ReplRecord{{Seq: 1, Obj: o, Wlog: &wlog.Record{Op: wlog.OpPut, App: "sim/0"}}}}
	}
	state := func(o *store.Object) ReplState {
		return ReplState{Seq: 1, Wlog: wl, Objects: []*store.Object{o}}
	}

	// stored reads the one object the store holds and checks its CRC.
	stored := func(str *store.Store) ([]byte, error) {
		objs := str.GetVersion("f", 1, box)
		if len(objs) != 1 {
			return nil, fmt.Errorf("%d objects kept, want 1", len(objs))
		}
		if o := objs[0]; o.CRC != good.CRC || o.Verify() != nil {
			return nil, fmt.Errorf("kept CRC %#x, its bytes' %#x, sent %#x", o.CRC, store.Checksum(o.Data), good.CRC)
		}
		return objs[0].Data, nil
	}
	got := func(s *Server) ([]byte, error) {
		resp, err := transport.As[GetResp](s.Handle(GetReq{Name: "f", Version: 1, BBox: box}))
		if err != nil || len(resp.Pieces) != 1 {
			return nil, fmt.Errorf("get: %v, %d pieces", err, len(resp.Pieces))
		}
		if _, err := stored(s.store); err != nil {
			return nil, err
		}
		return resp.Pieces[0].Data, nil
	}
	replica := func(s *Server) ([]byte, error) { return stored(s.replicas.slot(1).store) }

	for _, tc := range []struct {
		name string
		req  func(o *store.Object) any // carries o's payload, and o itself when carrier
		read func(*Server) ([]byte, error)
		// carrier: the request carries a logged object, which a flipped
		// payload byte gets refused.
		carrier bool
	}{
		{"PutReq", func(o *store.Object) any {
			return PutReq{App: "sim/0", Name: "f", Version: 1, ElemSize: 1, Logged: true, Piece: Piece{BBox: box, Data: o.Data}}
		}, got, false},
		{"ShardPutReq", func(o *store.Object) any { return ShardPutReq{Key: "k", Shard: 1, Data: o.Data} }, func(s *Server) ([]byte, error) {
			resp, err := transport.As[ShardGetResp](s.Handle(ShardGetReq{Key: "k", Shard: 1}))
			return resp.Data, err
		}, false},
		{"ReplApplyReq", func(o *store.Object) any { return apply(o) }, replica, true},
		{"EpochReq{ReplApplyReq}", func(o *store.Object) any { return EpochReq{Epoch: 1, Req: apply(o)} }, replica, true},
		{"ReplSnapshotReq", func(o *store.Object) any { return ReplSnapshotReq{Epoch: 1, Slot: 1, State: state(o)} }, replica, true},
		{"FencedReq{WlogInstallReq}", func(o *store.Object) any {
			return FencedReq{Token: 1, Req: WlogInstallReq{Slot: 0, State: state(o)}}
		}, got, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := codec.Append(nil, tc.req(good))
			if err != nil {
				t.Fatal(err)
			}
			req, err := codec.UnmarshalAlias(wire)
			if err != nil {
				t.Fatal(err)
			}
			s := NewServer(0)
			if _, err := s.Handle(req); err != nil {
				t.Fatal(err)
			}
			clear(wire)
			kept, err := tc.read(s)
			if err != nil {
				t.Fatalf("after the request's buffer was recycled: %v", err)
			}
			if !bytes.Equal(kept, big) {
				t.Fatal("the kept bytes changed when the request's buffer was recycled")
			}
		})
		if !tc.carrier {
			continue
		}
		t.Run(tc.name+"/flipped", func(t *testing.T) {
			s := NewServer(0)
			if _, err := s.Handle(tc.req(&flipped)); err == nil {
				t.Fatal("an object whose payload fails its CRC was accepted")
			}
			if kept, err := tc.read(s); err == nil {
				t.Fatalf("a refused request kept %d bytes", len(kept))
			}
			// The sender's clean re-send is kept, and a replica it lands in
			// installs on a fresh server.
			if _, err := s.Handle(tc.req(good)); err != nil {
				t.Fatalf("clean re-send after the refusal: %v", err)
			}
			if kept, err := tc.read(s); err != nil || !bytes.Equal(kept, big) {
				t.Fatalf("clean re-send after the refusal not kept: %v", err)
			}
			if _, ok := s.replicas.slots[1]; ok {
				spare := NewServer(0)
				if _, err := spare.Handle(FencedReq{Token: 1, Req: WlogInstallReq{Slot: 1, State: fetchReplica(t, s, 1)}}); err != nil {
					t.Fatalf("install of the replica: %v", err)
				}
				if kept, err := got(spare); err != nil || !bytes.Equal(kept, big) {
					t.Fatalf("get after the install: %v", err)
				}
			}
		})
	}

	t.Run("ReplApplyReq/object-less", func(t *testing.T) {
		s := NewServer(0)
		if _, err := s.Handle(apply(nil)); err == nil {
			t.Fatal("a put record without its object was accepted")
		}
		rep := s.replicas.slot(1)
		if rep.seq != 0 {
			t.Fatalf("a refused put record moved the replica to seq %d", rep.seq)
		}
		if _, err := s.Handle(apply(good)); err != nil {
			t.Fatalf("clean re-send after the refusal: %v", err)
		}
		if kept, err := replica(s); err != nil || !bytes.Equal(kept, big) {
			t.Fatalf("clean re-send after the refusal not kept: %v", err)
		}
		state, err := rep.log.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		logged := wlog.New()
		if err := logged.Restore(state); err != nil {
			t.Fatal(err)
		}
		if ev := logged.OnRecovery("sim/0"); len(ev) != 1 || ev[0].Name != "f" || ev[0].Version != 1 || !ev[0].BBox.Equal(box) || ev[0].Bytes != int64(len(big)) {
			t.Fatalf("the replica logged %+v, want the object's put alone", ev)
		}
	})

	// The cold tier's record: a record whose frame verifies but whose
	// payload fails its CRC is not promoted, so a replay read of it fails.
	for _, o := range []*store.Object{good, &flipped} {
		s := NewServer(0)
		be := pfs.NewStore()
		s.EnableTier(be)
		if err := s.tier.Spill([]*store.Object{o}); err != nil {
			t.Fatal(err)
		}
		for _, name := range be.List("tier/0/o/") {
			rec, _ := be.Read(name)
			seq, body, ok := ckpt.OpenRecord(rec)
			if o == &flipped {
				// Spilled with its payload off its CRC, the record does not
				// open; re-framed over its bytes as they are, it does.
				if ok {
					t.Fatal("a record sealed with a payload off its CRC opens")
				}
				seq, body = 0, rec[24:]
			}
			be.Write(name, ckpt.SealRecord(seq, body))
		}
		kept, err := got(s)
		if o == good && (err != nil || !bytes.Equal(kept, big)) {
			t.Fatalf("tier record: promote: %v", err)
		}
		if o == &flipped && (err == nil || s.store.Objects() != 0) {
			t.Fatalf("tier record: a payload that fails its CRC was promoted (get: %v)", err)
		}
	}
}

// FuzzServerHandle fuzzes the request pipeline's front door: whatever
// the codec alias-decodes from arbitrary bytes is handed to a server of
// a replicating, QoS-enabled group, and the input is then zeroed, as the
// transport recycles a frame buffer. Nothing may panic, and every logged
// object the server then stages must read back with a valid CRC: the
// request's bytes are not the server's to keep. The corpus is seeded
// with TestWireCompleteness's requests, bare and in both envelopes,
// with their responses (a server must refuse those unharmed), and with
// a put record that carries no object.
func FuzzServerHandle(f *testing.F) {
	cases, _ := wireCases(f)
	for _, tc := range cases {
		for _, msg := range append(enveloped(tc.req), tc.resp) {
			if wire, err := codec.Append(nil, msg); err == nil {
				f.Add(wire)
			}
		}
	}
	objectless := ReplApplyReq{Epoch: 1, Slot: 1, Records: []ReplRecord{{Seq: 1, Wlog: &wlog.Record{Op: wlog.OpPut, App: "sim/0"}}}}
	if wire, err := codec.Append(nil, objectless); err == nil {
		f.Add(wire)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := codec.UnmarshalAlias(data)
		if err != nil {
			return
		}
		g, err := StartGroup(transport.NewInProc(), "fuzz", Config{
			Global: domain.Box3(0, 0, 0, 31, 31, 15), NServers: 2, Bits: 2, ElemSize: 1,
			WlogReplicas: 1, QoS: &qos.Config{},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer g.Close()
		s := g.Server(0)
		s.Handle(req)
		clear(data)
		for _, o := range s.store.Export() {
			if o.Logged && o.Verify() != nil {
				t.Fatalf("after %T: staged %q v%d %v fails its CRC", req, o.Name, o.Version, o.BBox)
			}
		}
	})
}
