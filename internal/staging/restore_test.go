package staging_test

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gospaces/internal/codec"
	"gospaces/internal/domain"
	"gospaces/internal/health"
	"gospaces/internal/recovery"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// The tests in this file pin how a promotion restores the dead slot's
// replica, on the wire: the supervisor reads positions only, and the
// freshest holder installs its replica on the spare itself, so the
// restored bytes cross once — and a losing copy not at all.

// crossing is one request a tapped transport forwarded, with the sizes
// it and its answer encode to.
type crossing struct {
	to              string
	req             any
	reqLen, respLen int
}

// wireLog records the crossings of one tapped transport while on.
type wireLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	seen []crossing
}

func (w *wireLog) tap(t *testing.T, inner transport.Transport) transport.Transport {
	return staging.NewTap(inner, nil, func(addr string, req, resp any) {
		if !w.on.Load() {
			return
		}
		reqWire, err := codec.Append(nil, req)
		if err != nil {
			t.Errorf("encode %T: %v", req, err)
		}
		respWire, err := codec.Append(nil, resp)
		if err != nil {
			t.Errorf("encode %T: %v", resp, err)
		}
		w.mu.Lock()
		w.seen = append(w.seen, crossing{to: addr, req: req, reqLen: len(reqWire), respLen: len(respWire)})
		w.mu.Unlock()
	})
}

func (w *wireLog) crossings() []crossing {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]crossing(nil), w.seen...)
}

// restoredBytes is what recovery.log_bytes counts of a state.
func restoredBytes(st staging.ReplState) int64 {
	n := int64(len(st.Wlog))
	for _, o := range st.Objects {
		n += int64(len(o.Data))
	}
	return n
}

func payload(n int, v int64) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(int64(i)*7 + v*131)
	}
	return out
}

// TestRestoreCrossesOnce: for K=1 and K=2 and every victim, the
// supervisor's own traffic during the restore is positions only, and
// the group's is one WlogInstallReq — from the lowest-numbered of the
// freshest holders, to the spare — carrying exactly recovery.log_bytes.
// With K=2 the other holder's copy never crosses.
func TestRestoreCrossesOnce(t *testing.T) {
	const nservers = 4
	global := domain.Box3(0, 0, 0, 63, 63, 7) // 256 KiB of 8-byte cells a version
	for _, k := range []int{1, 2} {
		for victim := 0; victim < nservers; victim++ {
			t.Run(fmt.Sprintf("K=%d/victim=%d", k, victim), func(t *testing.T) {
				inner := transport.NewInProc()
				var groupWire, supWire wireLog
				g, err := staging.StartGroup(groupWire.tap(t, inner), "stage", staging.Config{
					Global: global, NServers: nservers, Bits: 2, ElemSize: 8, WlogReplicas: k,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer g.Close()
				spare, err := g.AddSpare()
				if err != nil {
					t.Fatal(err)
				}
				prod, err := g.NewClient("sim/0")
				if err != nil {
					t.Fatal(err)
				}
				defer prod.Close()
				size := domain.BufLen(global, 8)
				for v := int64(1); v <= 2; v++ {
					if err := prod.PutWithLog("field", v, global, payload(size, v)); err != nil {
						t.Fatal(err)
					}
				}

				supTr := supWire.tap(t, inner)
				det := health.NewDetector(supTr, "supervisor/0", health.Config{
					Period: 5 * time.Millisecond, Timeout: 20 * time.Millisecond, SuspectAfter: 2, DeadAfter: 4,
				})
				sup := recovery.New(supTr, det, g.Membership(), g, recovery.Config{
					// The restore is over when its stage ends: stop recording.
					PromotionHook: func(stage string, _ int) {
						if stage == "restored" {
							groupWire.on.Store(false)
							supWire.on.Store(false)
						}
					},
				})
				defer sup.Close()
				sup.Start()
				if err := sup.WaitIdle(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				addrs := g.Membership().Addrs()
				groupWire.on.Store(true)
				supWire.on.Store(true)
				if err := g.FailStop(victim); err != nil {
					t.Fatal(err)
				}
				if err := sup.WaitIdle(10 * time.Second); err != nil {
					t.Fatal(err)
				}
				logBytes := sup.Metrics().Counter("recovery.log_bytes").Value()
				if logBytes < int64(size)/nservers {
					t.Fatalf("recovery.log_bytes = %d, less than the slot's share of one version", logBytes)
				}

				// The holders of the victim's replica are its K successors, in
				// step; the tie goes to the lowest-numbered.
				holder := nservers
				for i := 1; i <= k; i++ {
					holder = min(holder, (victim+i)%nservers)
				}
				var installs, asked int
				for _, c := range supWire.crossings() {
					if c.reqLen+c.respLen > 512 {
						t.Errorf("the supervisor sent %T to %s: %d bytes out, %d back; it relays no state", c.req, c.to, c.reqLen, c.respLen)
					}
					if r, ok := c.req.(staging.ReplFetchReq); ok {
						asked++
						if r.InstallOn != "" {
							installs++
							if c.to != addrs[holder] || r.InstallOn != spare || r.Slot != victim {
								t.Errorf("install of slot %d on %s asked of %s, want slot %d on the spare %s asked of holder %s",
									r.Slot, r.InstallOn, c.to, victim, spare, addrs[holder])
							}
						}
					}
				}
				if asked != (nservers-1)+1 || installs != 1 {
					t.Errorf("the supervisor sent %d ReplFetchReq, %d of them installs; want a position query to each of the %d survivors, then one install",
						asked, installs, nservers-1)
				}
				var crossed int
				for _, c := range groupWire.crossings() {
					in, ok := c.req.(staging.WlogInstallReq)
					if !ok {
						if c.reqLen+c.respLen > 512 {
							t.Errorf("%T to %s crossed with %d bytes during the restore", c.req, c.to, c.reqLen+c.respLen)
						}
						continue
					}
					crossed++
					if c.to != spare || in.Slot != victim || restoredBytes(in.State) != logBytes || int64(c.reqLen) < logBytes {
						t.Errorf("WlogInstallReq of slot %d to %s, %d restored bytes in %d on the wire; want slot %d to %s, recovery.log_bytes %d",
							in.Slot, c.to, restoredBytes(in.State), c.reqLen, victim, spare, logBytes)
					}
				}
				if crossed != 1 {
					t.Fatalf("the replica crossed %d times, want once", crossed)
				}

				cons, err := g.NewClient("ana/0")
				if err != nil {
					t.Fatal(err)
				}
				defer cons.Close()
				for v := int64(1); v <= 2; v++ {
					got, _, err := cons.GetWithLog("field", v, global)
					if err != nil || !bytes.Equal(got, payload(size, v)) {
						t.Fatalf("v%d through the promoted spare: %d bytes, %v", v, len(got), err)
					}
				}
			})
		}
	}
}

// TestForwardedInstallFenced: the holder forwards an install under the
// token it was asked with, so a deposed leader's install is rejected at
// the spare with a FencedError and nothing is installed; an unfenced
// one is refused by the holder; the current leader's lands.
func TestForwardedInstallFenced(t *testing.T) {
	global := domain.Box3(0, 0, 0, 63, 63, 7)
	g, err := staging.StartGroup(transport.NewInProc(), "stage", staging.Config{
		Global: global, NServers: 3, Bits: 2, ElemSize: 8, WlogReplicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	spareAddr, err := g.AddSpare()
	if err != nil {
		t.Fatal(err)
	}
	prod, err := g.NewClient("sim/0")
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	if err := prod.PutWithLog("field", 1, global, payload(domain.BufLen(global, 8), 1)); err != nil {
		t.Fatal(err)
	}
	spare, holder := g.ServerAt(spareAddr), g.Server(1) // slot 0's successor holds its replica
	if _, err := spare.Handle(staging.FencedReq{Token: 10, Req: staging.IntentClearReq{Slot: 0}}); err != nil {
		t.Fatal(err) // a newer leader has reached the spare
	}
	installed := func() staging.StatsResp {
		t.Helper()
		raw, err := spare.Handle(staging.StatsReq{})
		if err != nil {
			t.Fatal(err)
		}
		return raw.(staging.StatsResp)
	}
	install := staging.ReplFetchReq{Slot: 0, InstallOn: spareAddr}

	_, err = holder.Handle(staging.FencedReq{Token: 5, Req: install})
	if !staging.IsFenced(err) {
		t.Fatalf("install under a deposed token: %v, want a FencedError from the spare", err)
	}
	if _, err := holder.Handle(install); err == nil || staging.IsFenced(err) {
		t.Fatalf("unfenced install: %v, want the holder's refusal", err)
	}
	if st := installed(); st.StoreBytes != 0 || st.ReplSeq != 0 {
		t.Fatalf("rejected installs left the spare with %d bytes at seq %d", st.StoreBytes, st.ReplSeq)
	}

	raw, err := holder.Handle(staging.FencedReq{Token: 10, Req: install})
	if err != nil {
		t.Fatal(err)
	}
	resp := raw.(staging.ReplFetchResp)
	if st := installed(); !resp.Found || resp.Seq == 0 || st.ReplSeq != resp.Seq || st.StoreBytes == 0 {
		t.Fatalf("install under the current token: %+v, spare at seq %d with %d bytes", resp, st.ReplSeq, st.StoreBytes)
	}
}
