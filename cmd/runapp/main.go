// Command runapp executes one of the guest applications on the simulated
// cluster, optionally with a single configured fault — the tool for
// reproducing an individual injection experiment or just watching a
// workload run.
//
// Usage:
//
//	runapp -app wavetoy                      # fault-free run
//	runapp -app minimd -region reg -seed 7   # one register fault
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/mpi"
)

func main() {
	app := flag.String("app", "wavetoy", "application to run")
	region := flag.String("region", "", "fault region (reg, fp, bss, data, stack, text, heap, message); empty = fault-free")
	seed := flag.Uint64("seed", 1, "experiment seed")
	verbose := flag.Bool("v", false, "dump per-rank console output")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("runapp: ")

	a, err := apps.Get(*app)
	if err != nil {
		log.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		log.Fatalf("build: %v", err)
	}

	golden, err := core.RunGolden(im, a.Default.Ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		log.Fatalf("golden run: %v", err)
	}
	fmt.Printf("golden: %d ranks, max %d instructions, output %d bytes\n",
		a.Default.Ranks, golden.MaxInstrs(), len(golden.Output))

	if *region == "" {
		os.Stdout.Write(golden.Result.Stdout[0])
		return
	}

	r, err := core.ParseRegion(*region)
	if err != nil {
		log.Fatal(err)
	}
	res, err := core.Run(core.Config{
		Image: im, Ranks: a.Default.Ranks, Golden: golden,
		Injections: 1, Regions: []core.Region{r}, Seed: *seed,
		KeepExperiments: true,
	})
	if err != nil {
		log.Fatalf("injection: %v", err)
	}
	e := res.Experiments[0]
	fmt.Printf("injected: region=%s rank=%d trigger=%d fault=%q\n",
		e.Region, e.Rank, e.Trigger, e.Desc)
	fmt.Printf("outcome:  %s\n", e.Outcome)
	if e.Outcome == classify.Correct {
		fmt.Println("(the fault did not manifest)")
	}
	if *verbose {
		g := golden.Result
		fmt.Printf("--- golden rank-0 stdout ---\n%s", g.Stdout[0])
	}
}
