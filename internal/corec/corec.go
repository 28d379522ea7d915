// Package corec provides data resilience for the staging area, after
// CoREC (Duan et al., IPDPS'18), the DataSpaces branch the paper builds
// on. Objects an application stores through it survive staging-server
// failures through either replication or systematic Reed–Solomon
// erasure coding, with degraded reads while a server is down and an
// explicit Rebuild onto a replacement, which the application drives.
// The staging service never writes or rebuilds a corec object itself:
// the event log's versions are protected by wlog replication.
//
// The layer is client-driven: shards are placed on staging servers
// through the shard RPCs of internal/staging, so it composes with any
// transport.
package corec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"gospaces/internal/ec"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// Mode selects the redundancy scheme.
type Mode int

// Redundancy schemes.
const (
	// Replication stores full copies on distinct servers.
	Replication Mode = iota
	// ErasureCoding stores k data + m parity shards on distinct servers.
	ErasureCoding
)

// ErrUnavailable is returned when too few servers hold the object to
// reconstruct it.
var ErrUnavailable = errors.New("corec: object unavailable: too many shards lost")

// Config describes the redundancy geometry.
type Config struct {
	Mode Mode
	// Replicas is the copy count in Replication mode (>= 1).
	Replicas int
	// K and M are the erasure geometry in ErasureCoding mode.
	K, M int
}

// Client stores and retrieves resilient objects over a set of staging
// server connections.
type Client struct {
	cfg   Config
	coder *ec.Coder
	conns []transport.Client
}

// New creates a resilience client over the given server connections.
func New(cfg Config, conns []transport.Client) (*Client, error) {
	n := len(conns)
	switch cfg.Mode {
	case Replication:
		if cfg.Replicas < 1 || cfg.Replicas > n {
			return nil, fmt.Errorf("corec: %d replicas over %d servers", cfg.Replicas, n)
		}
		return &Client{cfg: cfg, conns: conns}, nil
	case ErasureCoding:
		if cfg.K+cfg.M > n {
			return nil, fmt.Errorf("corec: k+m=%d shards over %d servers", cfg.K+cfg.M, n)
		}
		coder, err := ec.NewCoder(cfg.K, cfg.M)
		if err != nil {
			return nil, err
		}
		return &Client{cfg: cfg, coder: coder, conns: conns}, nil
	default:
		return nil, fmt.Errorf("corec: unknown mode %d", cfg.Mode)
	}
}

// home returns the first server index for key placement.
func (c *Client) home(key string) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(len(c.conns)))
}

// server returns the i-th placement server for key.
func (c *Client) server(key string, i int) int {
	return (c.home(key) + i) % len(c.conns)
}

// frame prepends the payload length so erasure padding can be stripped
// after reconstruction.
func frame(data []byte) []byte {
	out := make([]byte, 8+len(data))
	binary.BigEndian.PutUint64(out, uint64(len(data)))
	copy(out[8:], data)
	return out
}

func unframe(framed []byte) ([]byte, error) {
	if len(framed) < 8 {
		return nil, errors.New("corec: framed payload too short")
	}
	n := binary.BigEndian.Uint64(framed)
	if n > uint64(len(framed)-8) {
		return nil, errors.New("corec: corrupt length header")
	}
	return framed[8 : 8+n], nil
}

// Put stores data resiliently under key.
func (c *Client) Put(key string, data []byte) error {
	switch c.cfg.Mode {
	case Replication:
		for i := 0; i < c.cfg.Replicas; i++ {
			s := c.server(key, i)
			if _, err := c.conns[s].Call(staging.ShardPutReq{Key: key, Shard: i, Data: data}); err != nil {
				return fmt.Errorf("corec: replica %d on server %d: %w", i, s, err)
			}
		}
		return nil
	default: // ErasureCoding
		shards, err := c.coder.Encode(c.coder.Split(frame(data)))
		if err != nil {
			return err
		}
		for i, shard := range shards {
			s := c.server(key, i)
			if _, err := c.conns[s].Call(staging.ShardPutReq{Key: key, Shard: i, Data: shard}); err != nil {
				return fmt.Errorf("corec: shard %d on server %d: %w", i, s, err)
			}
		}
		return nil
	}
}

// fetch returns shard i of key, or (nil, nil) when the server is
// unreachable or the shard is absent — degraded-read tolerance.
// rebuild marks fetches issued by Rebuild so the server's QoS
// layer schedules them on the recovery lane, not the foreground lane.
func (c *Client) fetch(key string, i int, rebuild bool) ([]byte, error) {
	s := c.server(key, i)
	raw, err := c.conns[s].Call(staging.ShardGetReq{Key: key, Shard: i, Rebuild: rebuild})
	if err != nil {
		return nil, nil // treat as lost shard
	}
	resp, ok := raw.(staging.ShardGetResp)
	if !ok || !resp.Found {
		return nil, nil
	}
	return resp.Data, nil
}

// Get retrieves the object, performing a degraded read if servers are
// down: any replica, or any K of the K+M shards, suffices.
func (c *Client) Get(key string) ([]byte, error) {
	switch c.cfg.Mode {
	case Replication:
		for i := 0; i < c.cfg.Replicas; i++ {
			if d, _ := c.fetch(key, i, false); d != nil {
				return d, nil
			}
		}
		return nil, ErrUnavailable
	default:
		n := c.cfg.K + c.cfg.M
		shards := make([][]byte, n)
		have := 0
		for i := 0; i < n && have < c.cfg.K; i++ {
			d, _ := c.fetch(key, i, false)
			if d != nil {
				shards[i] = d
				have++
			}
		}
		if have < c.cfg.K {
			return nil, ErrUnavailable
		}
		if err := c.coder.Reconstruct(shards); err != nil {
			return nil, fmt.Errorf("corec: %w: %v", ErrUnavailable, err)
		}
		framed, err := c.coder.Join(shards[:c.cfg.K], len(shards[0])*c.cfg.K)
		if err != nil {
			return nil, err
		}
		return unframe(framed)
	}
}

// Rebuild re-creates the shards or replicas that lived on a lost server
// after it has been replaced, restoring full redundancy for key. It
// returns the bytes re-written (0 when redundancy was already intact);
// the re-written shards are flagged so servers account them as rebuilt.
func (c *Client) Rebuild(key string) (int64, error) {
	switch c.cfg.Mode {
	case Replication:
		var good []byte
		var missing []int
		for i := 0; i < c.cfg.Replicas; i++ {
			if d, _ := c.fetch(key, i, true); d == nil {
				missing = append(missing, i)
			} else if good == nil {
				good = d
			}
		}
		if good == nil {
			return 0, ErrUnavailable
		}
		var restored int64
		for _, i := range missing {
			s := c.server(key, i)
			if _, err := c.conns[s].Call(staging.ShardPutReq{Key: key, Shard: i, Data: good, Rebuild: true}); err != nil {
				return restored, err
			}
			restored += int64(len(good))
		}
		return restored, nil
	default:
		n := c.cfg.K + c.cfg.M
		shards := make([][]byte, n)
		var missing []int
		have := 0
		for i := 0; i < n; i++ {
			d, _ := c.fetch(key, i, true)
			if d != nil {
				shards[i] = d
				have++
			} else {
				missing = append(missing, i)
			}
		}
		if have < c.cfg.K {
			return 0, ErrUnavailable
		}
		if len(missing) == 0 {
			return 0, nil
		}
		if err := c.coder.Reconstruct(shards); err != nil {
			return 0, err
		}
		var restored int64
		for _, i := range missing {
			s := c.server(key, i)
			if _, err := c.conns[s].Call(staging.ShardPutReq{Key: key, Shard: i, Data: shards[i], Rebuild: true}); err != nil {
				return restored, err
			}
			restored += int64(len(shards[i]))
		}
		return restored, nil
	}
}

// Drop removes all shards of key.
func (c *Client) Drop(key string) error {
	seen := map[int]bool{}
	count := c.cfg.Replicas
	if c.cfg.Mode == ErasureCoding {
		count = c.cfg.K + c.cfg.M
	}
	for i := 0; i < count; i++ {
		s := c.server(key, i)
		if seen[s] {
			continue
		}
		seen[s] = true
		if _, err := c.conns[s].Call(staging.ShardDropReq{Key: key}); err != nil {
			return err
		}
	}
	return nil
}

// StorageOverhead returns the redundancy factor of the configuration:
// bytes stored per byte of payload. Used by the ablation benchmarks.
func (c *Client) StorageOverhead() float64 {
	if c.cfg.Mode == Replication {
		return float64(c.cfg.Replicas)
	}
	return float64(c.cfg.K+c.cfg.M) / float64(c.cfg.K)
}
