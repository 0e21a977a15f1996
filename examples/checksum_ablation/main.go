// Checksum ablation: §6.2 and §7 of the paper quantify NAMD's
// application-level message checksums — they detect 46 % of manifested
// message faults at about 3 % runtime overhead.  This example runs the
// NAMD analogue with and without its checksums and reports both numbers.
//
//	go run ./examples/checksum_ablation
package main

import (
	"fmt"
	"log"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/mpi"
)

func measure(withChecksums bool, injections int) (overheadInstrs uint64, tally core.Tally) {
	app, err := apps.Get("minimd")
	if err != nil {
		log.Fatal(err)
	}
	cfg := app.Default
	cfg.Checksums = withChecksums
	im, err := app.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	golden, err := core.RunGolden(im, cfg.Ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Image: im, Ranks: cfg.Ranks, Golden: golden,
		Injections: injections,
		Regions:    []core.Region{core.RegionMessage},
		Seed:       11,
	})
	if err != nil {
		log.Fatal(err)
	}
	t, _ := res.Tally(core.RegionMessage)
	return golden.MaxInstrs(), t
}

func main() {
	log.SetFlags(0)
	const injections = 150

	instrOn, tallyOn := measure(true, injections)
	instrOff, tallyOff := measure(false, injections)

	overhead := 100 * (float64(instrOn) - float64(instrOff)) / float64(instrOff)
	fmt.Printf("checksum runtime overhead: %.1f%% (paper: ~3%% for NAMD)\n\n", overhead)

	show := func(label string, t core.Tally) {
		fmt.Printf("%-20s error rate %5.1f%%  of manifested: %4.0f%% app-detected, %4.0f%% incorrect\n",
			label, t.ErrorRate(),
			t.ManifestPercent(classify.AppDetected),
			t.ManifestPercent(classify.Incorrect))
	}
	show("with checksums:", tallyOn)
	show("without checksums:", tallyOff)
	fmt.Println("\n(the paper's Table 3: NAMD detects 46% of manifested message faults;")
	fmt.Println(" removing the checks converts those detections into silent corruption)")
}
