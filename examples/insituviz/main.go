// Insituviz exercises the paper's Case 1 access pattern: an in-situ
// feature-extraction/visualization consumer that reads only a subset of
// the data domain, at a lower cadence than the simulation produces it,
// and reduces the ROI it read (max over its cells) — a logged read, so
// the feature it extracts is the same after a replay. The viz component
// crashes mid-run and replays its logged subset reads while the
// simulation streams ahead, then the example prints the staging
// garbage-collection accounting that keeps the log bounded.
//
// Run with: go run ./examples/insituviz
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"gospaces"
)

func main() {
	global := gospaces.Box3(0, 0, 0, 127, 127, 63)
	// The viz reads the central 40% slab of the domain.
	roi := gospaces.Subset(global, 0.4)

	stage, err := gospaces.StartStaging(gospaces.StagingConfig{
		Global:   global,
		NServers: 4,
		Bits:     2,
		ElemSize: 8,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stage.Close()

	sim, err := stage.NewClient("sim/0")
	if err != nil {
		log.Fatal(err)
	}
	defer sim.Close()
	viz, err := stage.NewClient("viz/0")
	if err != nil {
		log.Fatal(err)
	}
	defer viz.Close()

	field := gospaces.NewField("vorticity", global, 8)
	const steps = 12
	const vizEvery = 2 // viz processes every second timestep

	fmt.Printf("simulation writes %d steps; viz extracts features from a %.0f%% ROI every %d steps\n",
		steps, 100*float64(roi.Volume())/float64(global.Volume()), vizEvery)

	vizTS := []int64{}
	for ts := int64(1); ts <= steps; ts++ {
		if err := sim.PutWithLog("vorticity", ts, global, field.Fill(ts, global)); err != nil {
			log.Fatal(err)
		}
		if ts%vizEvery == 0 {
			data, _, err := viz.GetWithLog("vorticity", ts, roi)
			if err != nil {
				log.Fatal(err)
			}
			if field.Verify(ts, roi, data) >= 0 {
				log.Fatalf("ts %d: ROI read corrupted", ts)
			}
			if ts == vizEvery {
				var mx uint64
				for i := 0; i < len(data); i += 8 {
					mx = max(mx, binary.LittleEndian.Uint64(data[i:]))
				}
				fmt.Printf("   max over %d ROI cells at ts %d: %g\n", len(data)/8, ts, float64(mx))
			}
			vizTS = append(vizTS, ts)
		}
		// Both components checkpoint on their own schedules.
		if ts%4 == 0 {
			if _, err := sim.WorkflowCheck(); err != nil {
				log.Fatal(err)
			}
		}
		if ts == 6 {
			if _, err := viz.WorkflowCheck(); err != nil {
				log.Fatal(err)
			}
		}
		// The viz pipeline crashes right after processing ts 8.
		if ts == 8 {
			fmt.Println("-- viz crashes after ts 8; restarting from its ts-6 checkpoint")
			replay, err := viz.WorkflowRestart()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("   %d logged ROI reads will replay\n", replay)
			// Replay the logged window (ts 8) before resuming.
			data, v, err := viz.GetWithLog("vorticity", 8, roi)
			if err != nil {
				log.Fatal(err)
			}
			if v != 8 || field.Verify(8, roi, data) >= 0 {
				log.Fatalf("replayed ROI read wrong (v=%d)", v)
			}
			fmt.Println("   replayed ts-8 ROI read byte-identically")
		}
	}

	stats, err := viz.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprocessed viz steps %v\n", vizTS)
	fmt.Printf("staging after GC: %d objects, %d payload bytes resident, %d freed by GC\n",
		stats.Objects, stats.StoreBytes, stats.GCFreedBytes)
	fmt.Println("the log retained only what a recovering component could still re-read.")
}
