package main

import (
	"fmt"
	"io"
	"strings"

	"gospaces/internal/health"
	"gospaces/internal/staging"
	"gospaces/internal/tier"
	"gospaces/internal/transport"
)

// tracedTransport wraps the transport handed to the staging group — one
// of the two seams the stack takes as a parameter — so that every client
// Call and every server-side handle is a span, named by request type.
// Servers dial their replica peers through the same transport, so a
// peer's ReplApplyReq shows up nested inside the origin's PutReq.
type tracedTransport struct {
	inner transport.Transport
	rec   *recorder
}

// Listen wraps the handler and returns the inner closer untouched: the
// staging group asks it for Addr() to learn the bound port.
func (t *tracedTransport) Listen(addr string, h transport.Handler) (io.Closer, error) {
	return t.inner.Listen(addr, func(req any) (any, error) {
		id := t.rec.begin("handle:" + reqName(req))
		resp, err := h(req)
		t.rec.end(id)
		return resp, err
	})
}

func (t *tracedTransport) Dial(addr string) (transport.Client, error) {
	c, err := t.inner.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tracedClient{inner: c, rec: t.rec}, nil
}

type tracedClient struct {
	inner transport.Client
	rec   *recorder
}

func (c *tracedClient) Call(req any) (any, error) {
	id := c.rec.begin("call:" + reqName(req))
	resp, err := c.inner.Call(req)
	c.rec.end(id)
	return resp, err
}

func (c *tracedClient) Close() error { return c.inner.Close() }

// reqName is the request's type without its package, looking through
// the epoch and fencing envelopes. The data-path types skip the
// reflection in %T.
func reqName(req any) string {
	switch r := req.(type) {
	case staging.EpochReq:
		return reqName(r.Req)
	case staging.FencedReq:
		return reqName(r.Req)
	case staging.PutReq:
		return "PutReq"
	case staging.GetReq:
		return "GetReq"
	case staging.ReplApplyReq:
		return "ReplApplyReq"
	case staging.CheckpointReq:
		return "CheckpointReq"
	case staging.RecoveryReq:
		return "RecoveryReq"
	case staging.StatsReq:
		return "StatsReq"
	case health.PingReq:
		return "PingReq"
	}
	name := fmt.Sprintf("%T", req)
	return name[strings.LastIndexByte(name, '.')+1:]
}

// tracedBackend wraps a server's cold-tier backend — the other seam —
// so that every file operation of a spill, promote or tier GC is a span.
type tracedBackend struct {
	inner tier.Backend
	rec   *recorder
}

func (b *tracedBackend) Write(name string, data []byte) error {
	id := b.rec.begin("pfs:Write")
	err := b.inner.Write(name, data)
	b.rec.end(id)
	return err
}

func (b *tracedBackend) Read(name string) ([]byte, bool) {
	id := b.rec.begin("pfs:Read")
	data, ok := b.inner.Read(name)
	b.rec.end(id)
	return data, ok
}

func (b *tracedBackend) Rename(old, new string) error {
	id := b.rec.begin("pfs:Rename")
	err := b.inner.Rename(old, new)
	b.rec.end(id)
	return err
}

func (b *tracedBackend) List(prefix string) []string {
	id := b.rec.begin("pfs:List")
	names := b.inner.List(prefix)
	b.rec.end(id)
	return names
}

func (b *tracedBackend) Delete(name string) {
	id := b.rec.begin("pfs:Delete")
	b.inner.Delete(name)
	b.rec.end(id)
}
