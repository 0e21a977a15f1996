// Command faultcampaign regenerates Tables 2-4 of the paper: the full
// fault-injection campaign over all eight regions (registers, memory
// sections, messages) for one or all of the three test applications.
//
// Usage:
//
//	faultcampaign [-app wavetoy|minimd|minicam|all] [-n 500] [-seed 1]
//	              [-regions reg,fp,...] [-csv] [-quiet]
//	              [-shard i/K] [-journal path] [-resume]
//	              [-worker http://host:8700] [-worker-name w1]
//	              [-predict]
//	              [-metrics-addr :9090] [-metrics-out snapshot.json]
//	              [-status 2s] [-forensics]
//	              [-trace-diff] [-trace-out trace.json]
//	              [-checkpoint-interval 12500]
//	              [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// Each campaign is built once, as the journal header report.NewCampaign
// makes of the flags — app, seed, regions, -n or the adaptive terms,
// -ranks/-scale, -shard — and the run derives from that header
// (JournalHeader.Config); -journal writes it as the journal's first line.
//
// -worker turns the process into a campaign engine for a faultcoord
// control plane: it pulls bounded leases from the coordinator at the
// given URL, runs their experiments (each lease grant carries the
// campaign's journal header, and the worker runs what it defines — the
// app at its ranks and scale — with the lease's entries),
// completes each lease with one request carrying its journal segment,
// when its experiments have run, and exits when the
// coordinator reports the campaign complete.  A worker holds its leases
// by heartbeat; one that dies or stalls simply forfeits them to other
// workers.  Worker mode takes the campaign definition from the
// coordinator and reads only -worker-name, -parallel and -quiet, so it
// refuses every other flag (-shard, -journal, -app, -metrics-out and the
// rest) rather than silently ignoring it.
//
// -metrics-addr serves live campaign telemetry over HTTP while the
// campaign runs (/metrics in the Prometheus text format, /metrics.json
// as a JSON snapshot); -metrics-out writes one final JSON snapshot at
// exit, and -status prints a one-line progress summary (rate, ETA,
// outcome mix) to stderr at the given interval.  -forensics attaches a
// flight recorder to the faulted rank of every experiment and records
// the last executed PCs, the trap detail and the injection-to-
// manifestation instruction count into the journal; faultmerge
// summarises these as the §5.2 crash/hang-latency histogram.  All four
// are off by default, in which case the campaign runs the exact same
// code path — and produces byte-identical output — as before they
// existed.
//
// -trace-diff localizes each Incorrect, Hang or Crash outcome by diffing
// what the experiment's ranks sent, wrote, opened and allocated against
// the golden run's tapes (Channel-level, receives skipped): the journal
// entry gains the first divergent output — implicated rank, output index,
// golden-vs-observed digests and the instruction distance from the
// injection.  faultmerge summarises these as the localization table.
// Both observers ride the one execution path — restored, solo first —
// and only observe: fixed-seed tables, CSV and journal order are
// byte-identical with -forensics or -trace-diff on or off, and their
// records with checkpointing on or off.  -trace-out writes the golden
// run's trace identity (app, seed, rank/message counts and the hash of
// its tapes) as one JSON line, which CI compares across shard legs and
// coordinator workers.
//
// Golden-run checkpointing is on by default: the golden run takes a
// consistent snapshot of the cluster as it runs, at most every
// -checkpoint-interval retired instructions (a floor: past 32 of them it
// keeps every other one and doubles the spacing), and each
// experiment starts from the latest snapshot at least 64 instructions
// (the flight recorder's depth) before its injection instead of from
// t=0.  A fixed-seed campaign produces
// byte-identical tables, CSV and journals with checkpointing on or off —
// it is purely a wall-clock optimization, for -adaptive rounds and a
// -worker's leases too.  -checkpoint-interval 0 disables it.
//
// -shard i/K runs only shard i of the K-way partition of the campaign
// plan.  Because every experiment's random stream is derived from
// (seed, region, index) alone, K shard runs at the same seed together
// perform exactly the experiments of the single-process campaign — run
// them on K machines (or CI jobs) with no coordination and merge their
// journals with faultmerge.
//
// -journal path appends every finished experiment to a JSONL checkpoint
// journal (requires a single -app).  With -resume, experiments already
// present in the journal are not re-run, so an interrupted or killed
// campaign picks up where it left off; SIGINT/SIGTERM stop dispatching
// and leave a clean journal.  Shard runs suppress the tables — the
// merged journals are the result.
//
// -predict prints the static AVF forecast of internal/analysis next to
// the campaign's measured manifestation rates.
//
// Exit status: 0 on a clean campaign, 1 if any experiment failed to
// classify (no fault was actually applied, so its row is meaningless —
// CI gates on this), 130 when interrupted by a signal.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/coord"
	"mpifault/internal/core"
	"mpifault/internal/mpi"
	"mpifault/internal/msgtrace"
	"mpifault/internal/report"
	"mpifault/internal/sampling"
	"mpifault/internal/telemetry"
)

func main() {
	os.Exit(run())
}

// runWorker is the -worker mode: a lease-pulling campaign engine for a
// faultcoord control plane.  It returns when the coordinator reports
// the campaign complete (exit 0) or on SIGINT/SIGTERM (exit 130); lost
// leases are not an error — another worker re-runs them.
func runWorker(url, name string, parallelism int, quiet bool) int {
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			close(stop)
		}
	}()

	opt := coord.WorkerOptions{
		URL:         strings.TrimRight(url, "/"),
		Name:        name,
		Parallelism: parallelism,
		Stop:        stop,
	}
	if !quiet {
		opt.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "worker %s: %s\n", name, fmt.Sprintf(format, args...))
		}
	}
	if err := coord.RunWorker(opt); err != nil {
		log.Print(err)
		return 1
	}
	select {
	case <-stop:
		return 130
	default:
		return 0
	}
}

// writeGoldenTrace records the golden run's trace identity as one JSON
// line.  The fields are all derived from its deterministic tapes, so two
// legs of one campaign — shards, superblock on/off, coordinator workers —
// must write byte-identical files; CI diffs them.
func writeGoldenTrace(path, app string, seed uint64, tapes []mpi.Tape) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = fmt.Fprintf(f, "{\"app\":%q,\"seed\":%d,\"ranks\":%d,\"messages\":%d,\"hash\":\"%016x\"}\n",
		app, seed, len(tapes), msgtrace.Messages(tapes), msgtrace.Hash(tapes))
	return err
}

// writeHeapProfile writes the heap as of a fresh collection: what the
// process still references at the call, not what it has allocated.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

func run() int {
	app := flag.String("app", "all", "application to inject into (wavetoy, minimd, minicam, all)")
	n := flag.Int("n", 500, "injections per region (paper: 400-1000, 2000 for some message rows)")
	seed := flag.Uint64("seed", 1, "campaign seed (same seed => identical campaign)")
	regions := flag.String("regions", "", "comma-separated region subset (reg,fp,bss,data,stack,text,heap,message)")
	csv := flag.Bool("csv", false, "emit machine-readable CSV instead of the table layout")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	par := flag.Int("parallel", 0, "concurrent experiment jobs (0 = auto)")
	shardSpec := flag.String("shard", "", "run only shard i of K (format i/K, e.g. 0/3); merge journals with faultmerge")
	journalPath := flag.String("journal", "", "append finished experiments to this JSONL checkpoint journal (single -app only)")
	resume := flag.Bool("resume", false, "skip experiments already recorded in -journal instead of starting fresh")
	predict := flag.Bool("predict", false, "print the static AVF prediction next to the measured rates")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file when a campaign's run returns, while its golden run, tapes and snapshots are still held (with -app all, the last app's)")
	metricsAddr := flag.String("metrics-addr", "", "serve live campaign metrics over HTTP on this address (/metrics Prometheus text, /metrics.json JSON)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file at exit")
	forensics := flag.Bool("forensics", false, "record per-experiment fault forensics (last executed PCs, trap detail, manifestation latency) into the journal")
	traceDiff := flag.Bool("trace-diff", false, "localize Incorrect/Hang/Crash outcomes by the first divergence of their ranks' outputs from the golden run's tapes")
	traceOut := flag.String("trace-out", "", "write the golden run's trace identity (app, seed, rank/message counts, hash of its tapes) as JSON to this file (requires a single -app)")
	statusEvery := flag.Duration("status", 0, "print a one-line campaign status to stderr at this interval (e.g. 2s; 0 = off)")
	ckptInterval := flag.Uint64("checkpoint-interval", core.DefaultCheckpointInterval, "least golden-run instructions between the snapshots the golden run takes of itself; experiments start from the latest one before their trigger (0 = always start from t=0)")
	workerURL := flag.String("worker", "", "run as a lease-pulling worker for the faultcoord coordinator at this URL; the campaign spec comes from the coordinator")
	workerName := flag.String("worker-name", "", "worker identity in the coordinator's cluster view (default host-pid)")
	adaptive := flag.Bool("adaptive", false, "adaptive sequential stopping: run each region in deterministic rounds and stop once its Wilson CI half-width reaches -d, instead of the fixed worst-case -n everywhere")
	targetD := flag.Float64("d", 0, "adaptive stopping target: per-region CI half-width (0 = 0.049, paper parity)")
	confidence := flag.Float64("confidence", 0, "adaptive CI confidence level (0 = 0.95)")
	roundSize := flag.Int("round", 0, "adaptive per-region per-round experiment bound (0 = default)")
	ranksOverride := flag.Int("ranks", 0, "override the application's MPI world size (rank-count sweeps; 0 = app default)")
	scaleOverride := flag.Int("scale", 0, "override the application's per-rank problem size (0 = app default)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("faultcampaign: ")

	if *workerURL != "" {
		// Worker mode takes its whole campaign definition from the
		// coordinator and reads only the flags below; any other flag
		// would be silently ignored, so refuse loudly instead.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "worker", "worker-name", "parallel", "quiet":
			default:
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			log.Printf("-worker mode takes the campaign spec from the coordinator; drop %s", strings.Join(conflicts, ", "))
			return 1
		}
		return runWorker(*workerURL, *workerName, *par, *quiet)
	}

	injections := *n
	if *adaptive {
		// The adaptive planner sizes each region from its own tallies, so
		// a raw count contradicts it (and -n has a nonzero default, which
		// report.NewCampaign could not tell from a request).  NewCampaign
		// refuses -shard, and the adaptive terms without -adaptive.
		injections = 0
		nFlagSet := false
		flag.Visit(func(f *flag.Flag) { nFlagSet = nFlagSet || f.Name == "n" })
		if nFlagSet {
			log.Print("-adaptive sizes the campaign itself (stopping at the CI target); it cannot be combined with -n")
			return 1
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Printf("cpuprofile: %v", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	// The registry exists only when some consumer asked for it; with all
	// three surfaces off it stays nil and the campaign records nothing.
	var metrics *telemetry.Registry
	if *metricsAddr != "" || *metricsOut != "" || *statusEvery > 0 {
		metrics = telemetry.New()
	}
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Printf("metrics-addr: %v", err)
			return 1
		}
		srv := &http.Server{Handler: telemetry.Handler(metrics)}
		go srv.Serve(ln)
		defer srv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serving metrics at http://%s/metrics\n", ln.Addr())
		}
	}
	if *metricsOut != "" {
		defer func() {
			f, err := os.Create(*metricsOut)
			if err != nil {
				log.Printf("metrics-out: %v", err)
				return
			}
			defer f.Close()
			if err := metrics.Snapshot().WriteJSON(f); err != nil {
				log.Printf("metrics-out: %v", err)
			}
		}()
	}
	// adaptiveStatus carries the latest per-stratum CI half-width summary
	// from the planner's round barrier to the -status line.
	var adaptiveStatus atomic.Value
	if *statusEvery > 0 {
		campaignStart := time.Now()
		tick := time.NewTicker(*statusEvery)
		statusDone := make(chan struct{})
		go func() {
			defer tick.Stop()
			for {
				select {
				case <-statusDone:
					return
				case <-tick.C:
					line := telemetry.StatusLine(metrics.Snapshot(), time.Since(campaignStart))
					if s, _ := adaptiveStatus.Load().(string); s != "" {
						line += " | " + s
					}
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}()
		defer close(statusDone)
	}

	var regionNames []string
	if *regions != "" {
		regionNames = strings.Split(*regions, ",")
	}

	shard, numShards := 0, 1
	if *shardSpec != "" {
		var err error
		shard, numShards, err = core.ParseShard(*shardSpec)
		if err != nil {
			log.Print(err)
			return 1
		}
	}
	if *resume && *journalPath == "" {
		log.Print("-resume requires -journal")
		return 1
	}

	names := []string{"wavetoy", "minimd", "minicam"}
	if *app != "all" {
		names = []string{*app}
	}
	if *journalPath != "" && len(names) != 1 {
		log.Print("-journal records one campaign; pass a single -app")
		return 1
	}
	if *traceOut != "" && len(names) != 1 {
		log.Print("-trace-out records one golden trace; pass a single -app")
		return 1
	}

	// A signal stops dispatching new experiments; in-flight ones finish
	// and reach the journal, so a resumed run loses nothing.
	stop := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)
	go func() {
		if _, ok := <-sigc; ok {
			close(stop)
		}
	}()

	// In -csv mode stdout carries only CSV tables; prose summaries move
	// to stderr so the output stays machine-parseable.
	prose := os.Stdout
	if *csv {
		prose = os.Stderr
	}
	unclassified, interrupted := 0, false
	for i, name := range names {
		// The campaign is defined once, as the header its journal records;
		// this process's run derives from it like every other's.
		hdr, im, err := report.NewCampaign(report.JournalHeader{
			App: name, Seed: *seed, Injections: injections, Regions: regionNames,
			Ranks: *ranksOverride, Scale: *scaleOverride, Shard: shard, NumShards: numShards,
			Adaptive: *adaptive, Target: *targetD, Confidence: *confidence, RoundSize: *roundSize,
		})
		if err != nil {
			log.Print(err)
			return 1
		}
		if i == 0 && !*quiet {
			if hdr.Adaptive {
				fmt.Fprintf(prose, "sampling: adaptive sequential stopping at d<=%.1f%% (%.0f%% confidence), fixed-n cap %d/region\n",
					100*hdr.Target, 100*hdr.Confidence, hdr.Injections)
			} else if s, err := sampling.Describe(0.95, *n); err == nil {
				fmt.Fprintf(prose, "sampling: %s\n", s)
			}
		}
		cfg, err := hdr.Config(im)
		if err != nil {
			log.Print(err)
			return 1
		}
		start := time.Now()
		cfg.Parallelism, cfg.Stop, cfg.Metrics = *par, stop, metrics
		cfg.Forensics, cfg.TraceDiff, cfg.CheckpointInterval = *forensics, *traceDiff, *ckptInterval
		if hdr.Adaptive {
			cfg.OnRound = func(st core.AdaptiveStats) {
				adaptiveStatus.Store(st.StatusSuffix())
				if !*quiet {
					fmt.Fprintf(os.Stderr, "%s: round %d: %s\n", name, st.Rounds, st.StatusSuffix())
				}
			}
		}
		if !*quiet {
			cfg.Progress = func(done, total int) {
				if done%50 == 0 || done == total {
					fmt.Fprintf(os.Stderr, "\r%s: %d/%d experiments", name, done, total)
					if done == total {
						fmt.Fprintln(os.Stderr)
					}
				}
			}
		}

		var journal *report.Journal
		resumed := 0
		if *journalPath != "" {
			if *resume {
				var completed map[string]core.Experiment
				journal, completed, err = report.ResumeJournal(*journalPath, hdr)
				cfg.Completed = completed
				resumed = len(completed)
			} else {
				journal, err = report.CreateJournal(*journalPath, hdr)
			}
			if err != nil {
				log.Print(err)
				return 1
			}
			cfg.OnExperiment = func(e core.Experiment) {
				if err := journal.Append(e); err != nil {
					log.Printf("journal: %v", err)
				}
			}
		}

		res, err := core.Run(cfg)
		if journal != nil {
			if cerr := journal.Close(); cerr != nil {
				log.Printf("journal: %v", cerr)
			}
		}
		if err != nil {
			log.Printf("campaign %s: %v", name, err)
			return 1
		}
		if *memprofile != "" {
			if err := writeHeapProfile(*memprofile); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}
		unclassified += res.Unclassified
		if st := res.Checkpoints; st != nil && !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d checkpoints; %d/%d experiments restored mid-run, %.1fM golden-prefix instructions skipped\n",
				name, st.Taken, st.Hits, st.Hits+st.Misses, float64(st.InstrsSkipped)/1e6)
		}
		if so := res.Solo; so.Attempts() > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d/%d experiments decided on the injected rank alone (%d correct: %d at injection, %d converged; %d failed; %d deadlocked); %d re-run: %d of %d peers materialized\n",
				name, so.Decided(), so.Attempts(), so.Correct, so.Dead, so.Converged, so.Failed, so.Deadlock, so.Fallback, so.Materialized, so.Peers)
		}
		// A campaign that runs no round (resumed from a finished journal,
		// or stopped before its first) has no golden run.
		if res.Golden == nil && *traceOut != "" {
			log.Printf("%s: no experiment left to run, so no golden run: -trace-out not written", name)
		}
		if res.Golden != nil {
			tapes := res.Golden.Result.Tapes
			if *traceDiff && !*quiet {
				fmt.Fprintf(os.Stderr, "%s: golden trace digest %016x (%d messages across %d ranks)\n",
					name, msgtrace.Hash(tapes), msgtrace.Messages(tapes), len(tapes))
			}
			if *traceOut != "" {
				if err := writeGoldenTrace(*traceOut, name, *seed, tapes); err != nil {
					log.Printf("trace-out: %v", err)
					return 1
				}
			}
		}
		done := 0
		for _, t := range res.Tallies {
			done += t.Executions
		}
		if res.Interrupted {
			if *journalPath != "" {
				log.Printf("%s: interrupted after %d experiments; resume with -resume -journal %s",
					name, done, *journalPath)
			} else {
				log.Printf("%s: interrupted after %d experiments; nothing was recorded (no -journal), so a rerun starts over",
					name, done)
			}
			interrupted = true
			break
		}

		if hdr.NumShards > 1 {
			// A shard's tables would be misleading fragments; the result
			// is the journal, merged across shards by faultmerge.
			fmt.Printf("%s: shard %d/%d complete: %d experiments (%d resumed from journal)\n",
				name, hdr.Shard, hdr.NumShards, done, resumed)
			continue
		}
		if *csv {
			report.WriteCampaignCSV(os.Stdout, name, res)
		} else {
			a, _ := apps.Get(name) // NewCampaign found it
			report.WriteCampaign(os.Stdout, fmt.Sprintf("%s, stands in for %s", name, a.Paper), res)
			fmt.Printf("(campaign wall time %.1fs)\n\n", time.Since(start).Seconds())
		}
		if st := res.Adaptive; st != nil {
			if !*csv {
				report.WriteRates(os.Stdout, name, res)
				fmt.Println()
			}
			fmt.Fprintf(prose, "%s: adaptive stopping converged in %d rounds: %d experiments vs %d fixed-n (%.2fx of the worst case)\n\n",
				name, st.Rounds, st.TotalExecuted(), st.FixedTotal(),
				float64(st.TotalExecuted())/float64(st.FixedTotal()))
		}
		if *predict {
			rep, err := analysis.StaticAVF(cfg.Image)
			if err != nil {
				log.Printf("avf %s: %v", name, err)
				return 1
			}
			rep.App = name
			measured := make(map[string]float64)
			for _, t := range res.Tallies {
				measured[t.Region.String()] = t.ErrorRate() / 100
			}
			fmt.Printf("%s: static AVF prediction vs measured manifestation rate:\n", name)
			rep.WriteAVF(os.Stdout, measured)
			fmt.Println()
		}
	}

	if interrupted {
		return 130
	}
	if unclassified > 0 {
		log.Printf("%d experiments failed to classify (no fault was applied); results are incomplete", unclassified)
		return 1
	}
	return 0
}
