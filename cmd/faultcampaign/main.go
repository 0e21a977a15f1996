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
//	              [-checkpoint-interval 12500] [-checkpoints 32]
//	              [-no-superblock]
//	              [-cpuprofile out.pprof] [-memprofile out.pprof]
//
// -worker turns the process into a campaign engine for a faultcoord
// control plane: it pulls bounded leases from the coordinator at the
// given URL, runs their experiments (the campaign spec — app, seed,
// injections, regions — arrives with each lease),
// streams the journal segments back over HTTP, and exits when the
// coordinator reports the campaign complete.  A worker holds its leases
// by heartbeat; one that dies or stalls simply forfeits them to other
// workers.  Worker mode takes the campaign definition from the
// coordinator, so it refuses the local campaign flags (-shard, -journal,
// -resume, -app and the rest) rather than silently ignoring them.
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
// -checkpoint-interval retired instructions (a floor: past -checkpoints
// of them it keeps every other one and doubles the spacing), and each
// experiment starts from the latest snapshot at least 64 instructions
// (the flight recorder's depth) before its injection instead of from
// t=0.  A fixed-seed campaign produces
// byte-identical tables, CSV and journals with checkpointing on or off —
// it is purely a wall-clock optimization, for -adaptive rounds and a
// -worker's leases too.  -checkpoint-interval 0 disables it.
//
// -no-superblock runs every machine on the per-instruction interpreter
// instead of the compiled superblock tier (internal/vm/superblock.go).
// A fixed-seed campaign produces byte-identical tables, CSV and
// journals with superblocks on or off; the flag exists so differential
// CI legs can prove that equivalence and so a miscompiled block can be
// bisected away from an interpreter bug.
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
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	metricsAddr := flag.String("metrics-addr", "", "serve live campaign metrics over HTTP on this address (/metrics Prometheus text, /metrics.json JSON)")
	metricsOut := flag.String("metrics-out", "", "write a JSON metrics snapshot to this file at exit")
	forensics := flag.Bool("forensics", false, "record per-experiment fault forensics (last executed PCs, trap detail, manifestation latency) into the journal")
	traceDiff := flag.Bool("trace-diff", false, "localize Incorrect/Hang/Crash outcomes by the first divergence of their ranks' outputs from the golden run's tapes")
	traceOut := flag.String("trace-out", "", "write the golden run's trace identity (app, seed, rank/message counts, hash of its tapes) as JSON to this file (requires a single -app)")
	statusEvery := flag.Duration("status", 0, "print a one-line campaign status to stderr at this interval (e.g. 2s; 0 = off)")
	ckptInterval := flag.Uint64("checkpoint-interval", core.DefaultCheckpointInterval, "least golden-run instructions between the snapshots the golden run takes of itself; experiments start from the latest one before their trigger (0 = always start from t=0)")
	ckptMax := flag.Int("checkpoints", 0, "maximum checkpoints the golden run keeps; a longer run widens the spacing instead (0 = default)")
	noSuperblock := flag.Bool("no-superblock", false, "run the per-instruction interpreter instead of the compiled superblock tier (differential CI legs, bisection); fixed-seed output is byte-identical either way")
	workerURL := flag.String("worker", "", "run as a lease-pulling worker for the faultcoord coordinator at this URL; the campaign spec comes from the coordinator")
	workerName := flag.String("worker-name", "", "worker identity in the coordinator's cluster view (default host-pid)")
	adaptive := flag.Bool("adaptive", false, "adaptive sequential stopping: run each region in deterministic rounds and stop once its Wilson CI half-width reaches -d, instead of the fixed worst-case -n everywhere")
	targetD := flag.Float64("d", core.DefaultTargetHalfWidth, "adaptive stopping target: per-region CI half-width (paper parity 0.049)")
	confidence := flag.Float64("confidence", core.DefaultConfidence, "adaptive CI confidence level")
	roundSize := flag.Int("round", 0, "adaptive per-region per-round experiment bound (0 = default)")
	ranksOverride := flag.Int("ranks", 0, "override the application's MPI world size (rank-count sweeps; 0 = app default)")
	scaleOverride := flag.Int("scale", 0, "override the application's per-rank problem size (0 = app default)")
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("faultcampaign: ")

	if *workerURL != "" {
		// Worker mode takes its whole campaign definition from the
		// coordinator; combining it with local campaign flags would
		// silently ignore one side, so refuse loudly instead.
		var conflicts []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "shard", "journal", "resume", "app", "n", "seed", "regions",
				"csv", "predict", "forensics",
				"trace-diff", "trace-out",
				"checkpoint-interval", "checkpoints",
				"adaptive", "d", "confidence", "round", "ranks", "scale":
				conflicts = append(conflicts, "-"+f.Name)
			}
		})
		if len(conflicts) > 0 {
			log.Printf("-worker mode takes the campaign spec from the coordinator; drop %s", strings.Join(conflicts, ", "))
			return 1
		}
		return runWorker(*workerURL, *workerName, *par, *quiet)
	}

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
	if *adaptive {
		// The adaptive planner sizes each region from its own tallies, so
		// a raw count contradicts it (and -n has a nonzero default, which
		// core could not tell from a request).  core.NormalizeAdaptive
		// refuses -shard.
		if nFlagSet {
			log.Print("-adaptive sizes the campaign itself (stopping at the CI target); it cannot be combined with -n")
			return 1
		}
	} else if len(adaptiveOnly) > 0 {
		log.Printf("%s require -adaptive", strings.Join(adaptiveOnly, ", "))
		return 1
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
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Printf("memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("memprofile: %v", err)
			}
		}()
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

	var regionList []core.Region
	if *regions != "" {
		for _, s := range strings.Split(*regions, ",") {
			r, err := core.ParseRegion(strings.TrimSpace(s))
			if err != nil {
				log.Print(err)
				return 1
			}
			regionList = append(regionList, r)
		}
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
	if !*quiet {
		if *adaptive {
			if cap, err := sampling.SampleSize(*confidence, *targetD); err == nil {
				fmt.Fprintf(prose, "sampling: adaptive sequential stopping at d<=%.1f%% (%.0f%% confidence), fixed-n cap %d/region\n",
					100**targetD, 100**confidence, cap)
			}
		} else if s, err := sampling.Describe(0.95, *n); err == nil {
			fmt.Fprintf(prose, "sampling: %s\n", s)
		}
	}

	unclassified, interrupted := 0, false
	for _, name := range names {
		a, err := apps.Get(name)
		if err != nil {
			log.Print(err)
			return 1
		}
		build := a.Default
		if *ranksOverride > 0 {
			build.Ranks = *ranksOverride
		}
		if *scaleOverride > 0 {
			build.Scale = int32(*scaleOverride)
		}
		im, err := a.Build(build)
		if err != nil {
			log.Printf("build %s: %v", name, err)
			return 1
		}
		start := time.Now()
		cfg := core.Config{
			Image:       im,
			Ranks:       build.Ranks,
			Injections:  *n,
			Regions:     regionList,
			Seed:        *seed,
			Parallelism: *par,
			Shard:       shard,
			NumShards:   numShards,
			Stop:        stop,
			Metrics:     metrics,
			Forensics:   *forensics,
			TraceDiff:   *traceDiff,

			CheckpointInterval: *ckptInterval,
			MaxCheckpoints:     *ckptMax,
			DisableSuperblocks: *noSuperblock,
		}
		if *ckptInterval == 0 {
			cfg.MaxCheckpoints = 0 // -checkpoint-interval 0 means fully off
		}
		if *adaptive {
			cfg.Injections = 0 // the planner sizes the plan itself
			cfg.Adaptive = true
			cfg.TargetHalfWidth = *targetD
			cfg.Confidence = *confidence
			cfg.RoundSize = *roundSize
			labels, err := analysis.AVFPriors(im)
			if err != nil {
				log.Printf("avf priors %s: %v", name, err)
				return 1
			}
			if cfg.AVFPriors, err = core.PriorsFromLabels(labels); err != nil {
				log.Print(err)
				return 1
			}
			if _, err := core.NormalizeAdaptive(&cfg); err != nil {
				log.Print(err)
				return 1
			}
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
			hdr := report.CampaignHeader(name, cfg)
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

		var res *core.Result
		if *adaptive {
			res, err = core.RunAdaptive(cfg)
		} else {
			res, err = core.Run(cfg)
		}
		if journal != nil {
			if cerr := journal.Close(); cerr != nil {
				log.Printf("journal: %v", cerr)
			}
		}
		if err != nil {
			log.Printf("campaign %s: %v", name, err)
			return 1
		}
		unclassified += res.Unclassified
		if st := res.Checkpoints; st != nil && !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d checkpoints; %d/%d experiments restored mid-run, %.1fM golden-prefix instructions skipped\n",
				name, st.Taken, st.Hits, st.Hits+st.Misses, float64(st.InstrsSkipped)/1e6)
		}
		if so := res.Solo; so.Attempts() > 0 && !*quiet {
			fmt.Fprintf(os.Stderr, "%s: %d/%d experiments decided on the injected rank alone (%d correct: %d at injection, %d converged; %d failed); %d re-run: %d of %d peers materialized\n",
				name, so.Correct+so.Failed, so.Attempts(), so.Correct, so.Dead, so.Converged, so.Failed, so.Fallback, so.Materialized, so.Peers)
		}
		// An adaptive campaign that runs no round (resumed from a converged
		// journal, or stopped before its first) has no golden run.
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
		if res.Interrupted {
			done := 0
			for _, t := range res.Tallies {
				done += t.Executions
			}
			log.Printf("%s: interrupted after %d experiments; resume with -resume -journal %s",
				name, done, *journalPath)
			interrupted = true
			break
		}

		if numShards > 1 {
			// A shard's tables would be misleading fragments; the result
			// is the journal, merged across shards by faultmerge.
			done := 0
			for _, t := range res.Tallies {
				done += t.Executions
			}
			fmt.Printf("%s: shard %d/%d complete: %d experiments (%d resumed from journal)\n",
				name, shard, numShards, done, resumed)
			continue
		}
		if *csv {
			report.WriteCampaignCSV(os.Stdout, name, res)
		} else {
			report.WriteCampaign(os.Stdout, fmt.Sprintf("%s, stands in for %s", name, a.Paper), res)
			fmt.Printf("(campaign wall time %.1fs)\n\n", time.Since(start).Seconds())
		}
		if st := res.Adaptive; st != nil {
			if !*csv {
				report.WriteRates(os.Stdout, name, res, st.Confidence, st.Target)
				fmt.Println()
			}
			fmt.Fprintf(prose, "%s: adaptive stopping converged in %d rounds: %d experiments vs %d fixed-n (%.2fx of the worst case)\n\n",
				name, st.Rounds, st.TotalExecuted(), st.FixedTotal(),
				float64(st.TotalExecuted())/float64(st.FixedTotal()))
		}
		if *predict {
			rep, err := analysis.StaticAVF(im)
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
