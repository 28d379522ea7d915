package main

import (
	"fmt"
	"time"

	"gospaces/internal/domain"
	"gospaces/internal/pfs"
	"gospaces/internal/qos"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

const (
	elemSize = 8
	dhtBits  = 2
	varName  = "field"
)

// stack is one staging group in the production configuration, listening
// on loopback TCP: retry policy over the multiplexed TCP transport (what
// gospaces.Connect builds), two-lane QoS with default admission, K=1
// event-log replication, and a cold tier per server.
type stack struct {
	tcp   *transport.TCP
	retry *transport.Retrying
	tr    transport.Transport // retry, or the tracing decorator around it
	// bare is the TCP transport without the retry policy (decorated when
	// tracing), for the failure detector and the recovery supervisor: a
	// health probe sent through the retry layer sleeps in back-off past
	// the detector's own timeout, so one miss costs a whole timeout and
	// the Dead verdict arrives after WaitIdle's quiet window has closed.
	bare  transport.Transport
	group *staging.Group
}

// startStack brings a group up. rec non-nil wraps the transport and the
// tier backends with the span-recording decorators; nil leaves the stack
// exactly as production builds it.
//
// The cold tier's backend is pfs.Store, the repository's in-memory model
// of the parallel file system, and not pfs.DirStore: a run may write only
// inside its checkout, and on the checkout's disk (ext4 here) a spilling
// put is nine tenths file-system time that is the sandbox's, not the
// program's — restart-spill's put_overhead_ratio read 38.7, 65.5 and 64.4
// in three runs on it against 5.75 and 5.61 on the model. The tier's own
// work (encode, seal, twin generations, manifest commit) is the same on
// both.
func startStack(global domain.BBox, servers int, budget int64, rec *recorder) (*stack, error) {
	s := &stack{}
	s.tcp = transport.NewTCPTimeout(10*time.Second, 5*time.Second)
	s.retry = transport.WithRetry(s.tcp, transport.DefaultRetryPolicy())
	s.tr, s.bare = s.retry, s.tcp
	if rec != nil {
		s.tr = &tracedTransport{inner: s.retry, rec: rec}
		s.bare = &tracedTransport{inner: s.tcp, rec: rec}
	}
	cfg := staging.Config{
		Global:                global,
		NServers:              servers,
		Bits:                  dhtBits,
		ElemSize:              elemSize,
		MemoryBudgetPerServer: budget,
		WlogReplicas:          1,
		QoS:                   &qos.Config{},
		TierBackend: func(int) tier.Backend {
			if rec != nil {
				return &tracedBackend{inner: pfs.NewStore(), rec: rec}
			}
			return pfs.NewStore()
		},
	}
	g, err := staging.StartGroup(s.tr, "127.0.0.1:0", cfg)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("start group: %w", err)
	}
	s.group = g
	return s, nil
}

// close stops the servers.
func (s *stack) close() {
	if s.group != nil {
		s.group.Close()
	}
	s.retry.Close()
}

// clients dials n rank clients named "<component>/<rank>".
func (s *stack) clients(component string, n int) ([]*staging.Client, error) {
	out := make([]*staging.Client, 0, n)
	for i := 0; i < n; i++ {
		c, err := s.group.NewClient(fmt.Sprintf("%s/%d", component, i))
		if err != nil {
			closeClients(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeClients(cs []*staging.Client) {
	for _, c := range cs {
		c.Close()
	}
}

// counts is what the stack's layers count about themselves, read from
// the counters they already export: the servers' StatsReq, QosStatsReq
// and TierStatsReq, and the transport's and retry layer's registries.
type counts [nCounts]int64

const (
	cPuts = iota // PutReq handled
	cSuppressed
	cReplayGets
	cPutNanos // server-side put handling time
	cSheds
	cSpills
	cSpillBytes
	cPromotes
	cWireBytes // frame bytes written, either direction
	cRetries
	cGob  // payloads that fell back to gob inside the frame
	cFast // payloads on the binary fast path
	nCounts
)

func (c counts) minus(b counts) counts {
	for i := range c {
		c[i] -= b[i]
	}
	return c
}

func (c counts) plus(b counts) counts {
	for i := range c {
		c[i] += b[i]
	}
	return c
}

// counters reads the group's counters, promoted spares included.
func (s *stack) counters(c *staging.Client) (counts, error) {
	var out counts
	st, err := c.Stats()
	if err != nil {
		return out, err
	}
	out[cPuts], out[cSuppressed], out[cReplayGets], out[cPutNanos] = st.Puts, st.SuppressedPuts, st.ReplayGets, st.PutNanos
	for i := range s.group.Addrs() {
		srv := s.group.Server(i)
		if raw, err := srv.Handle(staging.QosStatsReq{}); err == nil {
			if q, ok := raw.(staging.QosStatsResp); ok {
				out[cSheds] += q.Sheds
			}
		}
		if raw, err := srv.Handle(staging.TierStatsReq{}); err == nil {
			if t, ok := raw.(staging.TierStatsResp); ok {
				out[cSpills] += t.Spills
				out[cSpillBytes] += t.SpillBytes
				out[cPromotes] += t.Promotes
			}
		}
	}
	wire, retry := s.tcp.Metrics(), s.retry.Metrics()
	out[cWireBytes] = wire.Counter("transport.bytes_out").Value()
	out[cGob] = wire.Counter("codec.gob_payloads").Value()
	out[cFast] = wire.Counter("codec.fastpath_hits").Value()
	out[cRetries] = retry.Counter("rpc.retries").Value()
	return out, nil
}
