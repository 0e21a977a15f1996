// Command faultcoord is the campaign-as-a-service control plane: a
// long-running coordinator that splits a fault-injection campaign into
// bounded leases, hands them to `faultcampaign -worker <url>` processes
// via pull-based work-stealing, ingests the JSONL journal segments the
// workers stream back, and serves the live cluster view.
//
// Usage:
//
//	faultcoord -addr :8700 [-addr-file path]
//	           [-app wavetoy -n 500 -seed 1 [-regions reg,fp,...]
//	            [-trace-diff]]
//	           [-lease-size 32] [-lease-ttl 15s]
//	           [-dir spool/] [-wait] [-out final.csv]
//	           [-status 5s] [-quiet]
//
// With campaign flags (-app and friends) the campaign is loaded at
// startup; without them the coordinator waits for a POST /api/campaign.
// Workers need nothing but the URL: every lease grant carries the full
// spec, so `faultcampaign -worker http://host:8700` on any number of
// machines is the whole cluster.  Slow or dead workers forfeit their
// leases after -lease-ttl without a heartbeat; the lease returns to the
// queue and the next worker re-runs it, with duplicate results resolved
// idempotently — every experiment's outcome is a pure function of
// (seed, region, index), so the re-run must agree byte for byte.
//
// -wait blocks until the campaign completes, writes the final CSV to
// -out (default stdout) and exits.  The CSV is byte-identical to
// `faultcampaign -csv -quiet` at the same parameters — the determinism
// gate CI enforces with a plain diff, even when a worker is SIGKILLed
// mid-campaign.  -dir spools every ingested segment to disk in the
// layout `faultmerge -coord <dir>` reconstructs the campaign from.
//
// Exit status (with -wait): 0 on a clean campaign, 1 when the campaign
// failed or any experiment failed to classify.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpifault/internal/coord"
	"mpifault/internal/core"
	"mpifault/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", ":8700", "listen address (host:port; port 0 picks a free port)")
	addrFile := flag.String("addr-file", "", "write the coordinator base URL to this file once listening (for scripts that use -addr :0)")
	app := flag.String("app", "", "campaign application (wavetoy, minimd, minicam); empty waits for POST /api/campaign")
	n := flag.Int("n", 500, "injections per region")
	seed := flag.Uint64("seed", 1, "campaign seed (same seed => identical campaign)")
	regions := flag.String("regions", "", "comma-separated region subset (reg,fp,bss,data,stack,text,heap,message)")
	traceDiff := flag.Bool("trace-diff", false, "make every worker localize Incorrect/Hang/Crash outcomes by their first divergence from the golden run's tapes (faultcampaign -trace-diff)")
	adaptive := flag.Bool("adaptive", false, "adaptive sequential stopping: cut leases in deterministic planner rounds and stop each region at the CI target instead of the fixed -n (faultcampaign -adaptive)")
	targetD := flag.Float64("d", core.DefaultTargetHalfWidth, "adaptive stopping target: per-region CI half-width (requires -adaptive)")
	confidence := flag.Float64("confidence", core.DefaultConfidence, "adaptive CI confidence level (requires -adaptive)")
	roundSize := flag.Int("round", 0, "adaptive per-region per-round experiment bound (0 = default; requires -adaptive)")
	leaseSize := flag.Int("lease-size", coord.DefaultLeaseSize, "plan entries per lease (small leases steal cheaply, large ones amortize the worker's golden run)")
	leaseTTL := flag.Duration("lease-ttl", coord.DefaultLeaseTTL, "lease deadline; a worker that has not heartbeat within this long forfeits the lease")
	dir := flag.String("dir", "", "spool ingested journal segments to this directory (merge with faultmerge -coord)")
	wait := flag.Bool("wait", false, "block until the campaign completes, write the final CSV and exit")
	out := flag.String("out", "", "write the final CSV to this file instead of stdout (with -wait)")
	statusEvery := flag.Duration("status", 0, "print a one-line cluster status to stderr at this interval (e.g. 5s; 0 = off)")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("faultcoord: ")

	metrics := telemetry.New()
	co := coord.New(coord.Config{Metrics: metrics, Dir: *dir})

	nFlagSet := false
	var adaptiveOnly []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "n":
			nFlagSet = true
		case "d", "confidence", "round":
			adaptiveOnly = append(adaptiveOnly, "-"+f.Name)
		}
	})
	if *adaptive && nFlagSet {
		log.Print("-adaptive sizes the campaign itself (stopping at the CI target); it cannot be combined with -n")
		return 1
	}
	if !*adaptive && len(adaptiveOnly) > 0 {
		log.Printf("%s require -adaptive", strings.Join(adaptiveOnly, ", "))
		return 1
	}

	if *app != "" {
		var shorts []string
		if *regions != "" {
			for _, s := range strings.Split(*regions, ",") {
				r, err := core.ParseRegion(strings.TrimSpace(s))
				if err != nil {
					log.Print(err)
					return 1
				}
				shorts = append(shorts, r.Short())
			}
		}
		spec := coord.Spec{
			App:            *app,
			Injections:     *n,
			Seed:           *seed,
			Regions:        shorts,
			TraceDiff:      *traceDiff,
			LeaseSize:      *leaseSize,
			LeaseTTLMillis: leaseTTL.Milliseconds(),
		}
		if *adaptive {
			// The planner sizes the plan; Submit normalizes the contract
			// and computes the AVF priors the rounds are seeded with.
			spec.Injections = 0
			spec.Adaptive = true
			spec.TargetHalfWidth = *targetD
			spec.Confidence = *confidence
			spec.RoundSize = *roundSize
		}
		err := co.Submit(spec)
		if err != nil {
			log.Print(err)
			return 1
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Printf("listen: %v", err)
		return 1
	}
	url := "http://" + ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(url+"\n"), 0o644); err != nil {
			log.Printf("addr-file: %v", err)
			return 1
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "coordinator listening at %s (workers: faultcampaign -worker %s)\n", url, url)
	}
	srv := &http.Server{Handler: co.Handler()}
	go srv.Serve(ln)
	defer srv.Close()

	if *statusEvery > 0 {
		start := time.Now()
		tick := time.NewTicker(*statusEvery)
		statusDone := make(chan struct{})
		go func() {
			defer tick.Stop()
			for {
				select {
				case <-statusDone:
					return
				case <-tick.C:
					fmt.Fprintln(os.Stderr, telemetry.ClusterStatusLine(metrics.Snapshot(), time.Since(start)))
				}
			}
		}()
		defer close(statusDone)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	if !*wait {
		<-sigc
		if !*quiet {
			fmt.Fprintln(os.Stderr, "signal received; shutting down")
		}
		return 0
	}

	// -wait: the campaign may not be loaded yet (POST arrives later), so
	// poll for its Done channel, then block on it.
	var done <-chan struct{}
	for done == nil {
		done = co.Done()
		if done != nil {
			break
		}
		select {
		case <-sigc:
			return 130
		case <-time.After(100 * time.Millisecond):
		}
	}
	select {
	case <-sigc:
		return 130
	case <-done:
	}

	csv, unclassified, err := co.ResultCSV()
	if err != nil {
		log.Print(err)
		return 1
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Print(err)
			return 1
		}
		defer f.Close()
		w = f
	}
	if _, err := w.Write(csv); err != nil {
		log.Print(err)
		return 1
	}
	st := co.Status()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "campaign complete: %d experiments over %d leases (%d stolen, %d duplicate results resolved)\n",
			st.Results, st.LeasesTotal, st.LeasesStolen, st.Duplicates)
	}
	if unclassified > 0 {
		log.Printf("%d experiments failed to classify (no fault was applied); results are incomplete", unclassified)
		return 1
	}
	return 0
}
