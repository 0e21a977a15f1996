// Quickstart: build one of the paper's workloads, run it fault-free on
// the simulated cluster, then inject a single register bit flip and see
// how it manifests.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/mpi"
)

func main() {
	log.SetFlags(0)

	// 1. Build the Cactus Wavetoy analogue into a guest binary image.
	app, err := apps.Get("wavetoy")
	if err != nil {
		log.Fatal(err)
	}
	im, err := app.Build(app.Default)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built %s: %d bytes text, %d symbols, %d ranks\n",
		app.Name, len(im.Text), len(im.Symbols), app.Default.Ranks)

	// 2. Golden (fault-free) run: the reference output and timing.
	golden, err := core.RunGolden(im, app.Default.Ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("golden run: max %d instructions/rank, %d output bytes\n",
		golden.MaxInstrs(), len(golden.Output))
	fmt.Printf("rank 0 console: %s", golden.Result.Stdout[0])

	// 3. Inject ten single-bit register faults (one per run) and report
	// each manifestation, the paper's §5.1 taxonomy.
	res, err := core.Run(core.Config{
		Image:           im,
		Ranks:           app.Default.Ranks,
		Golden:          golden,
		Injections:      10,
		Regions:         []core.Region{core.RegionRegularReg},
		Seed:            2004, // the year of the paper; any seed works
		KeepExperiments: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nten register-fault experiments:")
	for _, e := range res.Experiments {
		fmt.Printf("  rank %d @ instruction %-8d %-22s -> %s\n",
			e.Rank, e.Trigger, e.Desc, e.Outcome)
	}
	t := res.Tallies[0]
	fmt.Printf("\nerror rate: %.0f%% (%d/%d manifested)\n",
		t.ErrorRate(), t.Errors(), t.Executions)
}
