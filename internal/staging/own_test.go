package staging

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"testing"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
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
// hosted replica's install and a promoted spare's).
func TestHandlersOwnWhatTheyKeep(t *testing.T) {
	box := domain.Box3(0, 0, 0, 31, 31, 15)
	big := fill(domain.BufLen(box, 1), 7)
	crc := crc32.Checksum(big, castagnoli)
	wl, err := wlog.New().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rec := ReplRecord{Seq: 1, Data: big, ElemSize: 1, CRC: crc, Wlog: &wlog.Record{
		Op: wlog.OpPut, App: "sim/0", Name: "f", Version: 1, BBox: box, Bytes: int64(len(big)),
	}}
	state := ReplState{Seq: 1, Wlog: wl, Objects: []ReplObject{{Name: "f", Version: 1, BBox: box, ElemSize: 1, Data: big, CRC: crc}}}
	apply := ReplApplyReq{Epoch: 1, Slot: 1, Records: []ReplRecord{rec}}

	// stored reads the one object the store holds and checks its CRC.
	stored := func(str *store.Store) ([]byte, error) {
		objs := str.GetVersion("f", 1, box)
		if len(objs) != 1 {
			return nil, fmt.Errorf("%d objects kept, want 1", len(objs))
		}
		if o := objs[0]; o.CRC != crc || crc32.Checksum(o.Data, castagnoli) != crc {
			return nil, fmt.Errorf("kept CRC %#x, its bytes' %#x, sent %#x", o.CRC, crc32.Checksum(o.Data, castagnoli), crc)
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
		req  any
		read func(*Server) ([]byte, error)
	}{
		{"PutReq", PutReq{App: "sim/0", Name: "f", Version: 1, ElemSize: 1, Logged: true, Piece: Piece{BBox: box, Data: big}}, got},
		{"ShardPutReq", ShardPutReq{Key: "k", Shard: 1, Data: big}, func(s *Server) ([]byte, error) {
			resp, err := transport.As[ShardGetResp](s.Handle(ShardGetReq{Key: "k", Shard: 1}))
			return resp.Data, err
		}},
		{"ReplApplyReq", apply, replica},
		{"EpochReq{ReplApplyReq}", EpochReq{Epoch: 1, Req: apply}, replica},
		{"ReplSnapshotReq", ReplSnapshotReq{Epoch: 1, Slot: 1, State: state}, replica},
		{"FencedReq{WlogInstallReq}", FencedReq{Token: 1, Req: WlogInstallReq{Slot: 0, State: state}}, got},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wire, err := codec.Append(nil, tc.req)
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
	}
}

// FuzzServerHandle fuzzes the request pipeline's front door: whatever
// the codec alias-decodes from arbitrary bytes is handed to a server of
// a replicating, QoS-enabled group, and the input is then zeroed, as the
// transport recycles a frame buffer. Nothing may panic, and every logged
// object the server then stages must read back with a valid CRC: the
// request's bytes are not the server's to keep. The corpus is seeded
// with TestWireCompleteness's requests, bare and in both envelopes.
func FuzzServerHandle(f *testing.F) {
	cases, _ := wireCases(f)
	for _, tc := range cases {
		for _, req := range enveloped(tc.req) {
			if wire, err := codec.Append(nil, req); err == nil {
				f.Add(wire)
			}
		}
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
			if o.Logged && o.CRC != 0 && crc32.Checksum(o.Data, castagnoli) != o.CRC {
				t.Fatalf("after %T: staged %q v%d %v fails its CRC", req, o.Name, o.Version, o.BBox)
			}
		}
	})
}
