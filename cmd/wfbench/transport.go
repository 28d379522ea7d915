package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gospaces/internal/ec"
	"gospaces/internal/staging"
	"gospaces/internal/transport"
)

// transportRow is one BENCH_transport.json entry.
type transportRow struct {
	Bench        string  `json:"bench"`
	Mode         string  `json:"mode"`
	PayloadBytes int     `json:"payload_bytes"`
	Callers      int     `json:"callers,omitempty"`
	Ops          int     `json:"ops"`
	Seconds      float64 `json:"seconds"`
	MBPerSec     float64 `json:"mb_per_s"`
	OpsPerSec    float64 `json:"ops_per_s"`
}

// transportExp measures the staging data plane end to end over TCP
// loopback: real protocol messages (ShardPutReq) through the
// multiplexed transport across payload sizes and caller counts. It also
// times the erasure-coding encode kernel serial vs chunk-parallel, and
// writes every measurement to outPath as JSON. The "serialized" rows
// already in outPath — the seed transport (gob both ways, one call in
// flight), which no longer exists to be measured — are carried over
// untouched as history.
func transportExp(outPath string) error {
	sizes := []int{4 << 10, 256 << 10, 4 << 20}
	callers := []int{1, 8, 64}
	var rows []transportRow
	if old, err := os.ReadFile(outPath); err == nil {
		var prev []transportRow
		if err := json.Unmarshal(old, &prev); err != nil {
			return fmt.Errorf("%s: %w", outPath, err)
		}
		for _, r := range prev {
			if r.Mode == "serialized" {
				rows = append(rows, r)
			}
		}
	}

	fmt.Println("== transport: multiplexed TCP loopback ==")
	for _, size := range sizes {
		for _, nc := range callers {
			row, err := putThroughput(size, nc)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			fmt.Printf("  %8s x %2d callers: %8.1f MB/s\n", sizeName(size), nc, row.MBPerSec)
		}
	}

	fmt.Println("== ec: encode kernel serial vs chunk-parallel ==")
	for _, size := range []int{256 << 10, 4 << 20, 64 << 20} {
		var serial, parallel transportRow
		for _, mode := range []string{"serial", "parallel"} {
			row, err := ecThroughput(mode, size)
			if err != nil {
				return err
			}
			rows = append(rows, row)
			if mode == "serial" {
				serial = row
			} else {
				parallel = row
			}
		}
		speedup := 0.0
		if serial.MBPerSec > 0 {
			speedup = parallel.MBPerSec / serial.MBPerSec
		}
		fmt.Printf("  %8s object: serial %8.1f MB/s   parallel %8.1f MB/s   %.2fx\n",
			sizeName(size), serial.MBPerSec, parallel.MBPerSec, speedup)
	}

	data, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d measurements to %s\n", len(rows), outPath)
	return nil
}

// putThroughput drives shard puts at one (size, callers) point until
// enough wall time has accumulated for a stable rate.
func putThroughput(size, nc int) (transportRow, error) {
	tr := transport.NewTCPTimeout(30*time.Second, 5*time.Second)
	ep, err := tr.ListenTCP("127.0.0.1:0", func(req any) (any, error) {
		return staging.ShardPutResp{}, nil
	})
	if err != nil {
		return transportRow{}, err
	}
	defer ep.Close()
	cl, err := tr.Dial(ep.Addr())
	if err != nil {
		return transportRow{}, err
	}
	defer cl.Close()

	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	req := staging.ShardPutReq{Key: "bench/object", Shard: 0, Data: payload}

	// Calibrate the op count so each point moves about a gibibyte —
	// enough wall time for a stable rate.
	ops := 1 << 30 / size
	if ops < 64 {
		ops = 64
	}

	// Warm up the connection, codec state, and buffer pools untimed,
	// and start each point from a clean heap so one point's garbage does
	// not bill the next point's run.
	for i := 0; i < 8; i++ {
		if _, err := cl.Call(req); err != nil {
			return transportRow{}, err
		}
	}
	runtime.GC()

	errs := make(chan error, nc)
	start := time.Now()
	per, extra := ops/nc, ops%nc
	for c := 0; c < nc; c++ {
		n := per
		if c < extra {
			n++
		}
		go func(n int) {
			for i := 0; i < n; i++ {
				if _, err := cl.Call(req); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(n)
	}
	for c := 0; c < nc; c++ {
		if err := <-errs; err != nil {
			return transportRow{}, err
		}
	}
	sec := time.Since(start).Seconds()
	return transportRow{
		Bench: "PutGet", Mode: "mux", PayloadBytes: size, Callers: nc, Ops: ops,
		Seconds: sec, MBPerSec: mbps(ops, size, sec), OpsPerSec: float64(ops) / sec,
	}, nil
}

// ecThroughput times Reed-Solomon parity generation over a k=6, m=3
// code (the rebuild path's configuration) in one worker mode.
func ecThroughput(mode string, objSize int) (transportRow, error) {
	workers := 1
	if mode == "parallel" {
		workers = 0 // GOMAXPROCS
	}
	prev := ec.SetWorkers(workers)
	defer ec.SetWorkers(prev)

	coder, err := ec.NewCoder(6, 3)
	if err != nil {
		return transportRow{}, err
	}
	rng := rand.New(rand.NewSource(1))
	obj := make([]byte, objSize)
	rng.Read(obj)
	shards := coder.Split(obj)

	ops := 512 << 20 / objSize
	if ops < 8 {
		ops = 8
	}
	// One untimed pass then a clean heap: parity-shard garbage from the
	// previous mode must not bill this one.
	if _, err := coder.Encode(shards); err != nil {
		return transportRow{}, err
	}
	runtime.GC()
	start := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := coder.Encode(shards); err != nil {
			return transportRow{}, err
		}
	}
	sec := time.Since(start).Seconds()
	return transportRow{
		Bench: "ECEncode", Mode: mode, PayloadBytes: objSize, Ops: ops,
		Seconds: sec, MBPerSec: mbps(ops, objSize, sec), OpsPerSec: float64(ops) / sec,
	}, nil
}

func mbps(ops, size int, sec float64) float64 {
	if sec <= 0 {
		return 0
	}
	return float64(ops) * float64(size) / (1 << 20) / sec
}

func sizeName(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	default:
		return fmt.Sprintf("%dKiB", n>>10)
	}
}
