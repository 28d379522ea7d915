// Heatdiffusion is a real numerical workflow on gospaces: a Jacobi
// heat-diffusion solver produces its temperature field into staging
// every step while a monitor reads it back and takes its mean; the
// solver checkpoints its actual grid state, crashes mid-run, restarts
// from the checkpoint, and replays through the staging log. The run is
// validated bit-exactly against a failure-free execution: same final
// grid, same sequence of monitor readings.
//
// Run with: go run ./examples/heatdiffusion
package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"log"
	"math"

	"gospaces"
)

const (
	n     = 48 // grid is n x n
	steps = 24
	// The solver checkpoints its grid every ckptEvery steps.
	ckptEvery = 6
	// crashAt is the step at whose start the solver dies (0 = never).
	alpha = 0.2 // diffusion coefficient
)

// solver is the application state that checkpoint/restart must
// preserve: the grid and the last completed step.
type solver struct {
	grid []float64
	ts   int64
}

func newSolver() *solver {
	s := &solver{grid: make([]float64, n*n)}
	// Hot west edge, cold elsewhere.
	for y := 0; y < n; y++ {
		s.grid[y*n] = 100
	}
	return s
}

// snapshot deep-copies the solver state (the example's "checkpoint to
// reliable storage").
func (s *solver) snapshot() *solver {
	cp := &solver{grid: append([]float64(nil), s.grid...), ts: s.ts}
	return cp
}

// step advances the diffusion equation one Jacobi iteration.
func (s *solver) step() {
	next := make([]float64, n*n)
	for y := 0; y < n; y++ {
		for x := 0; x < n; x++ {
			i := y*n + x
			if x == 0 { // fixed boundary
				next[i] = s.grid[i]
				continue
			}
			c := s.grid[i]
			up, down, left, right := c, c, s.grid[i-1], c
			if y > 0 {
				up = s.grid[i-n]
			}
			if y < n-1 {
				down = s.grid[i+n]
			}
			if x < n-1 {
				right = s.grid[i+1]
			}
			next[i] = c + alpha*(up+down+left+right-4*c)
		}
	}
	s.grid = next
	s.ts++
}

// encode serializes the grid as the staged payload (8-byte LE bits).
func (s *solver) encode() []byte {
	buf := make([]byte, n*n*8)
	for i, v := range s.grid {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
	return buf
}

func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// run executes the workflow; crashAt > 0 injects a solver crash at the
// start of that step. It returns the final grid checksum and the
// monitor's per-step means.
func run(crashAt int64) (uint64, []float64, error) {
	box := gospaces.Box3(0, 0, 0, n-1, n-1, 0)
	stage, err := gospaces.StartStaging(gospaces.StagingConfig{
		Global: box, NServers: 2, Bits: 2, ElemSize: 8,
	})
	if err != nil {
		return 0, nil, err
	}
	defer stage.Close()

	sim, err := stage.NewClient("heat/0")
	if err != nil {
		return 0, nil, err
	}
	defer sim.Close()
	mon, err := stage.NewClient("monitor/0")
	if err != nil {
		return 0, nil, err
	}
	defer mon.Close()

	s := newSolver()
	saved := s.snapshot() // initial checkpoint
	crashed := false
	means := make([]float64, 0, steps)

	for s.ts < steps {
		// Injected fail-stop: lose the live state, restart from the
		// checkpoint, switch staging into replay mode.
		if !crashed && crashAt > 0 && s.ts+1 == crashAt {
			crashed = true
			s = saved.snapshot()
			replay, err := sim.WorkflowRestart()
			if err != nil {
				return 0, nil, err
			}
			fmt.Printf("   solver crashed before step %d; restored grid at step %d, %d staged writes will be suppressed\n",
				crashAt, s.ts, replay)
			continue
		}
		s.step()
		if err := sim.PutWithLog("temp", s.ts, box, s.encode()); err != nil {
			return 0, nil, err
		}
		// The monitor consumes every version exactly once (replayed
		// solver writes are suppressed, so versions never change).
		if int64(len(means)) < s.ts {
			data, _, err := mon.GetWithLog("temp", s.ts, box)
			if err != nil {
				return 0, nil, err
			}
			var total float64
			for i := 0; i < n*n; i++ {
				total += math.Float64frombits(binary.LittleEndian.Uint64(data[i*8:]))
			}
			means = append(means, total/float64(n*n))
		}
		if s.ts%ckptEvery == 0 {
			saved = s.snapshot()
			if _, err := sim.WorkflowCheck(); err != nil {
				return 0, nil, err
			}
			if _, err := mon.WorkflowCheck(); err != nil {
				return 0, nil, err
			}
		}
	}
	return checksum(s.encode()), means, nil
}

func main() {
	fmt.Println("-- failure-free reference run")
	refSum, refMeans, err := run(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   final grid checksum %016x, mean temperature %.4f\n", refSum, refMeans[len(refMeans)-1])

	fmt.Println("-- run with a solver crash at step 15 (checkpoint at step 12)")
	gotSum, gotMeans, err := run(15)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("   final grid checksum %016x, mean temperature %.4f\n", gotSum, gotMeans[len(gotMeans)-1])

	if gotSum != refSum {
		log.Fatal("final grid diverged from the failure-free run!")
	}
	if len(gotMeans) != len(refMeans) {
		log.Fatalf("monitor saw %d readings, reference %d", len(gotMeans), len(refMeans))
	}
	for i := range refMeans {
		if gotMeans[i] != refMeans[i] {
			log.Fatalf("monitor reading %d diverged: %g vs %g", i, gotMeans[i], refMeans[i])
		}
	}
	fmt.Println("crash + checkpoint/restart + log replay reproduced the physics bit-exactly.")
}
