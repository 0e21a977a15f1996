package main

// The one adapter between the benchmark and the code it measures: every
// import of a measured mpifault/internal package is in this file (the
// guest-authoring packages are imported by guests.go), so an API change
// in a layer has a single touchpoint here.  Nothing in this file is used
// for an end-to-end metric: it serves the traced run, which replays a
// workload in-process through the Go API, records a span around every
// call into a layer, and times the layers' public functions from outside.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/cluster"
	"mpifault/internal/coord"
	"mpifault/internal/core"
	"mpifault/internal/image"
	"mpifault/internal/mpi"
	"mpifault/internal/report"
	"mpifault/internal/sampling"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// probeRepeats is how often a timed probe repeats; the shortest run
// counts, as for the end-to-end metrics.
const probeRepeats = 3

// observerEntries is how many leading plan entries of table_ckpt the
// observer probes run, with the observer on and off.
const observerEntries = 128

// sampleEntries is about how many plan entries, spread evenly over the
// plan, the single-threaded sample run executes.
const sampleEntries = 96

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerRun is one traced replay of one workload.
type layerRun struct {
	tr      *tracer
	root    int // the workload's span
	w       workload
	seed    uint64
	dir     string
	metrics map[string]float64
}

// timed runs fn inside a span under parent and returns how long it took.
func (r *layerRun) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.tr.begin(name, parent)
	err := fn()
	return r.tr.end(id), err
}

// bestOf runs fn probeRepeats times, each in its own span under the
// workload's, and returns the shortest duration.
func (r *layerRun) bestOf(name string, fn func() error) (time.Duration, error) {
	var bestD time.Duration
	for i := 0; i < probeRepeats; i++ {
		d, err := r.timed(name, r.root, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %v", name, err)
		}
		if i == 0 || d < bestD {
			bestD = d
		}
	}
	return bestD, nil
}

// runTraced replays the selected workloads one at a time, prints every
// per-layer metric by name with its unit and the self time of every
// span name, and writes the spans to benchmark/out/trace.json.
func (h *harness) runTraced(selected []workload) error {
	tr := newTracer()
	for _, w := range selected {
		tr.workload = w.Name
		first := len(tr.spans)
		base := h.programSeed(w)
		var r *layerRun
		var rep *replay
		var wall time.Duration
		// The seed rule of the end-to-end run (see seedStride): a seed whose
		// campaign leaves experiments unclassified gives way to the next.
		for seed := base; ; seed += seedStride {
			tr.spans = tr.spans[:first]
			r = &layerRun{tr: tr, w: w, seed: seed, metrics: map[string]float64{},
				dir: filepath.Join(h.root, buildDir, "traced", w.Name)}
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
			if err := os.MkdirAll(r.dir, 0o755); err != nil {
				return err
			}
			r.root = tr.begin("workload", -1)
			var err error
			rep, err = r.run()
			wall = tr.end(r.root)
			if err != nil {
				return fmt.Errorf("%s: %v", w.Name, err)
			}
			if rep.unclassified == 0 {
				break
			}
			if seed >= base+maxSeedSkips*seedStride {
				return fmt.Errorf("%s: seed %d: %d experiments failed to classify", w.Name, seed, rep.unclassified)
			}
			fmt.Printf("# %s: seed %d leaves %d experiments without a target; using seed %d\n",
				w.Name, seed, rep.unclassified, seed+seedStride)
		}
		if r.seed == defaultSeed+uint64(workloadIndex(w.Name)) {
			want, err := os.ReadFile(expectedPath(h.root, w.Name+".csv"))
			if err != nil {
				return err
			}
			if err := sameOutput(rep.csv, want, true); err != nil {
				return fmt.Errorf("%s: replay vs benchmark/expected/%s.csv: %v", w.Name, w.Name, err)
			}
		}

		fmt.Printf("\n== %s (traced): traced_wall_s %.3f, replay %.3f s for %d experiments\n",
			w.Name, wall.Seconds(), rep.wall.Seconds(), rep.executed)
		res := result{Correct: true, Attempted: rep.executed, Failed: rep.unclassified, Metrics: map[string]value{}}
		for _, spec := range h.spec.PerLayer {
			v, ok := r.metrics[spec.Name]
			if !ok {
				return fmt.Errorf("%s: per-layer metric %s of BENCHMARK.json was not measured", w.Name, spec.Name)
			}
			fmt.Printf("%-32s %14.4f %s\n", spec.Name, v, spec.Unit)
			res.Metrics[spec.Name] = value{Value: v, Unit: spec.Unit}
		}
		printSelfTimes(tr.spans[first:], first)
		printResult(res)
	}
	return writeTrace(filepath.Join(h.root, "benchmark", "out", "trace.json"), tr.spans)
}

// printSelfTimes prints self time per span name, largest first.  spans
// is the tail of the tracer's list starting at index base.
func printSelfTimes(spans []span, base int) {
	local := make([]span, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			s.Parent -= base
		}
		local[i] = s
	}
	self := selfByName(local)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return self[names[a]] > self[names[b]] })
	fmt.Println("self time by span (span minus what its children cover):")
	for _, n := range names {
		fmt.Printf("  %-40s %10.3f ms\n", n, ms(self[n]))
	}
}

// replay is what the in-process run of the workload itself produced.
type replay struct {
	csv          []byte
	wall         time.Duration
	executed     int
	unclassified int
}

// run measures every per-layer metric for the workload: the replay
// first, then the probes that need the workload's image, then the
// synthetic-guest probes.
func (r *layerRun) run() (*replay, error) {
	a, err := apps.Get(r.w.App)
	if err != nil {
		return nil, err
	}
	build := a.Default
	if r.w.Ranks > 0 {
		build.Ranks = r.w.Ranks
	}
	if r.w.Scale > 0 {
		build.Scale = int32(r.w.Scale)
	}
	var im *image.Image
	d, err := r.bestOf("apps.Build", func() (err error) { im, err = a.Build(build); return })
	if err != nil {
		return nil, err
	}
	r.metrics["apps.build_ms"] = ms(d)

	if d, err = r.bestOf("analysis.static", func() error { return staticAnalysis(im) }); err != nil {
		return nil, err
	}
	r.metrics["analysis.static_ms"] = ms(d)

	var golden *core.Golden
	d, err = r.bestOf("core.RunGolden", func() (err error) {
		golden, err = core.RunGolden(im, build.Ranks, mpi.Config{}, 30*time.Second)
		return
	})
	if err != nil {
		return nil, err
	}
	r.metrics["core.golden_ms"] = ms(d)
	var traffic mpi.Stats
	for _, rr := range golden.Result.Ranks {
		traffic.Add(rr.Stats)
	}
	r.metrics["mpi.msgs_per_job"] = float64(traffic.ControlMsgs + traffic.DataMsgs)
	r.metrics["mpi.bytes_per_job"] = float64(traffic.TotalBytes())

	cfg, err := r.campaignConfig(im, build.Ranks)
	if err != nil {
		return nil, err
	}
	rep, err := r.replay(cfg)
	if err != nil {
		return nil, err
	}
	if rep.unclassified > 0 {
		return rep, nil // the caller moves on to the next seed
	}
	rows, err := parseCSV(rep.csv)
	if err != nil {
		return nil, err
	}
	hangs := 0
	for _, row := range rows {
		hangs += row.Outcomes[1]
	}
	r.metrics["core.hang_share"] = float64(hangs) / float64(rep.executed)

	if err := r.vmProbes(im); err != nil {
		return nil, err
	}
	sample, err := r.sampleRun(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.checkpointSetupProbe(cfg); err != nil {
		return nil, err
	}
	for _, probe := range []func() error{
		r.mpiProbes, r.clusterProbes, r.samplingProbe, r.coordProbe, r.observerProbes,
		func() error { return r.reportProbes(cfg, sample) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// staticAnalysis is everything a campaign may ask of the analyzer before
// its first experiment: the AVF priors of an adaptive campaign and the
// equivalence map of a directed one.
func staticAnalysis(im *image.Image) error {
	if _, err := analysis.AVFPriors(im); err != nil {
		return err
	}
	prog, err := analysis.Analyze(im)
	if err != nil {
		return err
	}
	live := analysis.ComputeLiveness(prog)
	_, abiStats := analysis.ABICheck(prog)
	flow := analysis.ComputeDataflow(prog, live)
	analysis.ComputeEquivalence(prog, live, flow, abiStats)
	return nil
}

func parseRegions(short []string) ([]core.Region, error) {
	regions := make([]core.Region, len(short))
	for i, s := range short {
		var err error
		if regions[i], err = core.ParseRegion(s); err != nil {
			return nil, err
		}
	}
	return regions, nil
}

// campaignConfig is the core.Config faultcampaign builds from the
// workload's flags.  A coordinated workload gets the configuration of
// its single-process reference.
func (r *layerRun) campaignConfig(im *image.Image, ranks int) (core.Config, error) {
	regions, err := parseRegions(r.w.Regions)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Image: im, Ranks: ranks, Injections: r.w.N, Regions: regions,
		Seed: r.seed, Parallelism: 2,
	}
	switch {
	case r.w.Adaptive:
		cfg.Adaptive = true
		cfg.TargetHalfWidth = r.w.D
		cfg.Confidence = 0.95
		var labels map[string]float64
		if _, err := r.timed("analysis.AVFPriors", r.root, func() (err error) {
			labels, err = analysis.AVFPriors(im)
			return
		}); err != nil {
			return cfg, err
		}
		if cfg.AVFPriors, err = core.PriorsFromLabels(labels); err != nil {
			return cfg, err
		}
		if _, err := core.NormalizeAdaptive(&cfg); err != nil {
			return cfg, err
		}
	case !r.w.NoCheckpoint && r.w.LeaseSize == 0:
		cfg.CheckpointInterval = core.DefaultCheckpointInterval
	}
	return cfg, nil
}

// replay runs the workload's campaign in-process the way the shipped
// binaries do and fills the metrics that only a whole campaign yields.
func (r *layerRun) replay(cfg core.Config) (*replay, error) {
	reg := telemetry.New()
	cfg.Metrics = reg
	rep := &replay{}
	start := time.Now()
	var res *core.Result
	var err error
	switch {
	case r.w.LeaseSize > 0:
		var leases int
		if rep.csv, rep.unclassified, leases, err = r.replayCoord(); err != nil {
			return nil, err
		}
		rep.wall = time.Since(start)
		r.metrics["coord.leases_granted"] = float64(leases)
		// The workers own their core.Run calls, so the campaign's own
		// telemetry comes from the single-process reference run, whose
		// CSV the coordinator's must equal.
		if _, err = r.timed("core.Run(reference)", r.root, func() (err error) { res, err = core.Run(cfg); return }); err != nil {
			return nil, err
		}
		var ref bytes.Buffer
		report.WriteCampaignCSV(&ref, r.w.App, res)
		if err := sameOutput(rep.csv, ref.Bytes(), false); err != nil {
			return nil, fmt.Errorf("coordinator CSV vs the single-process run: %v", err)
		}
	default:
		name := "core.Run"
		if r.w.Adaptive {
			name = "core.RunAdaptive"
		}
		id := r.tr.begin(name, r.root)
		var journal *report.Journal
		var appendErr error
		if r.w.Journal {
			if journal, err = report.CreateJournal(filepath.Join(r.dir, "journal.jsonl"), report.CampaignHeader(r.w.App, cfg)); err != nil {
				return nil, err
			}
			// core.Run serializes OnExperiment calls, so appendErr needs no lock.
			cfg.OnExperiment = func(e core.Experiment) {
				if _, err := r.timed("report.Journal.Append", id, func() error { return journal.Append(e) }); err != nil && appendErr == nil {
					appendErr = err
				}
			}
		}
		if r.w.Adaptive {
			res, err = core.RunAdaptive(cfg)
		} else {
			res, err = core.Run(cfg)
		}
		r.tr.end(id)
		if journal != nil {
			if cerr := journal.Close(); err == nil {
				err = cerr
			}
		}
		if err == nil {
			err = appendErr
		}
		if err != nil {
			return nil, err
		}
		var out bytes.Buffer
		if _, err := r.timed("report.WriteCampaignCSV", r.root, func() error {
			report.WriteCampaignCSV(&out, r.w.App, res)
			return nil
		}); err != nil {
			return nil, err
		}
		rep.csv, rep.unclassified = out.Bytes(), res.Unclassified
		rep.wall = time.Since(start)
		r.metrics["coord.leases_granted"] = 0
	}

	for _, t := range res.Tallies {
		rep.executed += t.Executions
	}
	r.metrics["vm.instrs_retired"] = executedInstrs(reg, res)
	r.metrics["core.restore_hit_ratio"], r.metrics["core.instrs_skipped_share"] = 0, 0
	if st := res.Checkpoints; st != nil && st.Hits+st.Misses > 0 {
		r.metrics["core.restore_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
		r.metrics["core.instrs_skipped_share"] = float64(st.InstrsSkipped) / (float64(st.InstrsSkipped) + r.metrics["vm.instrs_retired"])
	}
	// A fixed-n campaign is one round that spends exactly its cap.
	r.metrics["sampling.rounds"], r.metrics["sampling.spend_ratio"] = 1, 1
	if st := res.Adaptive; st != nil {
		r.metrics["sampling.rounds"] = float64(st.Rounds)
		r.metrics["sampling.spend_ratio"] = float64(st.TotalExecuted()) / float64(st.FixedTotal())
	}
	return rep, nil
}

// replayCoord runs the campaign through an in-process coordinator served
// over HTTP and two single-threaded workers.
func (r *layerRun) replayCoord() (csv []byte, unclassified, leases int, err error) {
	reg := telemetry.New()
	co := coord.New(coord.Config{Metrics: reg})
	if _, err = r.timed("coord.Submit", r.root, func() error {
		return co.Submit(coord.Spec{App: r.w.App, Injections: r.w.N, Seed: r.seed,
			Regions: r.w.Regions, LeaseSize: r.w.LeaseSize})
	}); err != nil {
		return
	}
	srv := httptest.NewServer(co.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.timed("coord.RunWorker", r.root, func() error {
				return coord.RunWorker(coord.WorkerOptions{URL: srv.URL, Name: fmt.Sprintf("w%d", i+1), Parallelism: 1})
			})
		}(i)
	}
	wg.Wait() // a worker returns once the coordinator answers "campaign finished"
	for _, werr := range errs {
		if werr != nil {
			return nil, 0, 0, werr
		}
	}
	select {
	case <-co.Done():
	default:
		return nil, 0, 0, fmt.Errorf("workers left before the campaign finished")
	}
	_, err = r.timed("coord.ResultCSV", r.root, func() (err error) {
		csv, unclassified, err = co.ResultCSV()
		return
	})
	return csv, unclassified, int(reg.Counter(telemetry.MetricCoordLeasesGranted).Value()), err
}

// executedInstrs is the number of guest instructions the campaign's
// machines actually executed.  The telemetry counter adds each rank's
// final instruction count, which for a restored rank includes the
// golden prefix it skipped, so that prefix is taken off again.
func executedInstrs(reg *telemetry.Registry, res *core.Result) float64 {
	n := reg.Counter(telemetry.MetricInstrsRetired).Value()
	if st := res.Checkpoints; st != nil {
		n -= st.InstrsSkipped
	}
	return float64(n)
}

type exitOnly struct{}

func (exitOnly) Syscall(m *vm.Machine, num int32) *vm.Trap {
	return &vm.Trap{Kind: vm.TrapExit, PC: m.PC}
}

// vmProbes time the interpreter on the synthetic compute loop and the
// two ways a machine comes to be: vm.New for a start from t=0 and
// Snapshot.NewMachine for a checkpoint restore.
func (r *layerRun) vmProbes(appImage *image.Image) error {
	loop, err := computeLoop()
	if err != nil {
		return err
	}
	const budget = 4_000_000
	var instrs uint64
	d, err := r.bestOf("vm.Machine.Run", func() error {
		m := vm.New(loop)
		m.Handler = exitOnly{}
		m.Run(budget)
		instrs = m.Instrs
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["vm.ns_per_instr"] = float64(d.Nanoseconds()) / float64(instrs)

	const machines = 200
	if d, err = r.bestOf("vm.New", func() error {
		for i := 0; i < machines; i++ {
			vm.New(appImage)
		}
		return nil
	}); err != nil {
		return err
	}
	r.metrics["vm.machine_new_us"] = us(d) / machines

	warm := vm.New(loop)
	warm.Handler = exitOnly{}
	warm.Run(200_000)
	snap := warm.Snapshot()
	if d, err = r.bestOf("vm.Snapshot.NewMachine", func() error {
		for i := 0; i < machines; i++ {
			snap.NewMachine()
		}
		return nil
	}); err != nil {
		return err
	}
	r.metrics["vm.snapshot_new_us"] = us(d) / machines
	return nil
}

// job runs img on ranks through cluster.Run inside a span and fails if
// the verdict is not the expected one.
func (r *layerRun) job(name string, img *image.Image, ranks int, wantHang bool) func() error {
	return func() error {
		res := cluster.Run(cluster.Job{Image: img, Size: ranks, WallLimit: 30 * time.Second})
		if res.HangDetected != wantHang {
			return fmt.Errorf("%s on %d ranks: hang=%v (%s), want %v", name, ranks, res.HangDetected, res.HangCause, wantHang)
		}
		if !wantHang {
			if t := res.FirstFailure(); t != nil && !(t.Kind == vm.TrapExit && t.Code == 0) {
				return fmt.Errorf("%s on %d ranks: %v", name, ranks, t)
			}
		}
		return nil
	}
}

// perIteration times a guest at iters and at zero iterations and
// returns the difference per iteration: what one more pass through the
// loop body costs, with job set-up and teardown cancelled out.
func (r *layerRun) perIteration(name string, build func(int32) (*image.Image, error), iters int32, ranks int) (time.Duration, error) {
	var d [2]time.Duration
	for i, n := range []int32{iters, 0} {
		img, err := build(n)
		if err != nil {
			return 0, err
		}
		if d[i], err = r.bestOf(fmt.Sprintf("cluster.Run(%s,%d)", name, n), r.job(name, img, ranks, false)); err != nil {
			return 0, err
		}
	}
	return (d[0] - d[1]) / time.Duration(iters), nil
}

func (r *layerRun) mpiProbes() error {
	const roundTrips, reductions = 2000, 400
	d, err := r.perIteration("pingpong", pingPong, roundTrips, 2)
	if err != nil {
		return err
	}
	r.metrics["mpi.p2p_us_per_msg"] = us(d) / 2 // a round trip is two messages
	for _, ranks := range []int{8, 16} {
		if d, err = r.perIteration(fmt.Sprintf("allreduce-r%d", ranks), allreduceLoop, reductions, ranks); err != nil {
			return err
		}
		r.metrics[fmt.Sprintf("mpi.allreduce_us_r%d", ranks)] = us(d)
	}
	return nil
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func (r *layerRun) clusterProbes() error {
	empty, err := initFinalize()
	if err != nil {
		return err
	}
	const jobs = 20
	for _, ranks := range []int{8, 16} {
		run := r.job("init-finalize", empty, ranks, false)
		before := totalAlloc()
		d, err := r.bestOf(fmt.Sprintf("cluster.Run(init-finalize,r%d)", ranks), func() error {
			for i := 0; i < jobs; i++ {
				if err := run(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
		r.metrics[fmt.Sprintf("cluster.job_overhead_us_r%d", ranks)] = us(d) / jobs
		if ranks == 8 {
			r.metrics["cluster.alloc_kb_per_job"] = float64(totalAlloc()-before) / 1024 / (jobs * probeRepeats)
		}
	}
	stuck, err := stuckRecv()
	if err != nil {
		return err
	}
	d, err := r.bestOf("cluster.Run(stuck-recv)", r.job("stuck-recv", stuck, 8, true))
	if err != nil {
		return err
	}
	r.metrics["cluster.hang_verdict_ms"] = ms(d)
	return nil
}

// samplingProbe drives the planner to convergence over eight strata
// whose observed error rate equals their prior, timing NextRound plus
// the tally updates of each round.
func (r *layerRun) samplingProbe() error {
	priors := []float64{0.45, 0.08, 0.02, 0.02, 0.10, 0.10, 0.05, 0.30}
	var rounds int
	d, err := r.bestOf("sampling.Planner", func() error {
		strata := make([]sampling.Stratum, len(priors))
		for i, p := range priors {
			strata[i] = sampling.Stratum{Name: fmt.Sprintf("s%d", i), Prior: p}
		}
		p, err := sampling.NewPlanner(sampling.PlannerConfig{Confidence: 0.95, Target: 0.049}, strata)
		if err != nil {
			return err
		}
		executed := make([]int, len(priors))
		for rounds = 0; !p.Done(); rounds++ {
			for i, n := range p.NextRound() {
				executed[i] += n
				if err := p.SetTally(i, int(priors[i]*float64(executed[i])), executed[i]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.metrics["sampling.planner_us_per_round"] = us(d) / float64(rounds)
	return nil
}

// sampleRun executes an even sample of the workload's plan on one
// thread, so the gaps between Progress callbacks are single experiments.
// It yields the per-experiment latency percentiles, the allocation per
// experiment and the share of CPU time spent outside guest execution,
// and returns the experiments for the report probes to write.
func (r *layerRun) sampleRun(cfg core.Config) ([]core.Experiment, error) {
	plan := core.Plan{Regions: cfg.Regions, Injections: cfg.Injections}
	stride := plan.Total()/sampleEntries + 1
	reg := telemetry.New()
	cfg.Adaptive, cfg.AVFPriors = false, nil // a plain run over explicit entries
	cfg.Entries = plan.Shard(0, stride)
	cfg.Parallelism = 1
	cfg.KeepExperiments = true
	cfg.Metrics = reg
	var gaps []float64
	last := time.Now()
	cfg.Progress = func(done, total int) {
		now := time.Now()
		if done > 1 { // the first gap holds the golden run and checkpoint capture
			gaps = append(gaps, ms(now.Sub(last)))
		}
		last = now
	}

	allocBefore, cpuBefore := totalAlloc(), selfCPU()
	var res *core.Result
	if _, err := r.timed("core.Run(sample,parallel=1)", r.root, func() (err error) { res, err = core.Run(cfg); return }); err != nil {
		return nil, err
	}
	cpu := selfCPU() - cpuBefore
	r.metrics["core.alloc_kb_per_experiment"] = float64(totalAlloc()-allocBefore) / 1024 / float64(len(cfg.Entries))
	r.metrics["core.experiment_ms_p50"] = percentile(gaps, 50)
	r.metrics["core.experiment_ms_p95"] = percentile(gaps, 95)
	guest := executedInstrs(reg, res) * r.metrics["vm.ns_per_instr"]
	r.metrics["core.nonguest_share"] = 1 - guest/float64(cpu.Nanoseconds())
	return res.Experiments, nil
}

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // Getrusage(RUSAGE_SELF) cannot fail with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checkpointSetupProbe times a one-experiment campaign with and without
// checkpointing: the difference is what capturing the checkpoints costs
// before the first experiment, less the prefix that one experiment skips.
func (r *layerRun) checkpointSetupProbe(cfg core.Config) error {
	cfg.Adaptive, cfg.AVFPriors = false, nil
	cfg.Entries = []core.PlanEntry{{Region: cfg.Regions[0], Index: 0}}
	cfg.Parallelism = 1
	var d [2]time.Duration
	for i, interval := range []uint64{core.DefaultCheckpointInterval, 0} {
		cfg.CheckpointInterval = interval
		var err error
		if d[i], err = r.bestOf(fmt.Sprintf("core.Run(one,ckpt=%d)", interval), func() error {
			_, err := core.Run(cfg)
			return err
		}); err != nil {
			return err
		}
	}
	r.metrics["core.ckpt_setup_ms"] = ms(d[0] - d[1])
	return nil
}

// reportProbes time the journal: appending the sample run's experiments,
// parsing the bytes back, and merging four shard journals of them.
func (r *layerRun) reportProbes(cfg core.Config, experiments []core.Experiment) error {
	cfg.Adaptive, cfg.AVFPriors = false, nil
	// The sample is a strided subset, which MergeJournals would call
	// incomplete; renumber it as the complete plan of a smaller campaign.
	perRegion := map[core.Region]int{}
	for i := range experiments {
		e := &experiments[i]
		e.Index = perRegion[e.Region]
		perRegion[e.Region]++
	}
	cfg.Injections = perRegion[cfg.Regions[0]]
	for _, region := range cfg.Regions {
		if perRegion[region] < cfg.Injections {
			cfg.Injections = perRegion[region]
		}
	}
	var kept []core.Experiment
	for _, e := range experiments {
		if e.Index < cfg.Injections {
			kept = append(kept, e)
		}
	}

	path := filepath.Join(r.dir, "probe.jsonl")
	d, err := r.bestOf("report.Journal.Append", func() error {
		j, err := report.CreateJournal(path, report.CampaignHeader(r.w.App, cfg))
		if err != nil {
			return err
		}
		for _, e := range kept {
			if err := j.Append(e); err != nil {
				j.Close()
				return err
			}
		}
		return j.Close()
	})
	if err != nil {
		return err
	}
	r.metrics["report.journal_append_us"] = us(d) / float64(len(kept))

	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	const parses = 20
	if d, err = r.bestOf("report.ParseSegment", func() error {
		for i := 0; i < parses; i++ {
			if _, _, _, err := report.ParseSegment(data); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	r.metrics["report.parse_segment_mb_s"] = float64(len(data)) * parses / 1e6 / d.Seconds()

	const shards = 4
	var paths []string
	for s := 0; s < shards; s++ {
		shardCfg := cfg
		shardCfg.Shard, shardCfg.NumShards = s, shards
		p := filepath.Join(r.dir, fmt.Sprintf("shard%d.jsonl", s))
		j, err := report.CreateJournal(p, report.CampaignHeader(r.w.App, shardCfg))
		if err != nil {
			return err
		}
		for i := s; i < len(kept); i += shards {
			if err := j.Append(kept[i]); err != nil {
				j.Close()
				return err
			}
		}
		if err := j.Close(); err != nil {
			return err
		}
		paths = append(paths, p)
	}
	if d, err = r.bestOf("report.MergeJournals", func() error {
		_, err := report.MergeJournals(paths)
		return err
	}); err != nil {
		return err
	}
	r.metrics["report.merge_ms"] = ms(d)
	return nil
}

// coordProbe walks a small campaign through the coordinator by direct
// calls, one lease at a time: acquire, upload the lease's journal
// segment, complete.  The experiments come from one core.Run up front.
func (r *layerRun) coordProbe() error {
	const app, n, leaseSize = "wavetoy", 32, 4
	a, err := apps.Get(app)
	if err != nil {
		return err
	}
	im, err := a.Build(a.Default)
	if err != nil {
		return err
	}
	cfg := core.Config{Image: im, Ranks: a.Default.Ranks, Injections: n,
		Regions: []core.Region{core.RegionRegularReg}, Seed: r.seed, Parallelism: 2, KeepExperiments: true}
	res, err := core.Run(cfg)
	if err != nil {
		return err
	}
	header, err := json.Marshal(report.CampaignHeader(app, cfg))
	if err != nil {
		return err
	}

	co := coord.New(coord.Config{})
	if err := co.Submit(coord.Spec{App: app, Injections: n, Seed: r.seed, Regions: []string{"reg"}, LeaseSize: leaseSize}); err != nil {
		return err
	}
	id := r.tr.begin("coord.leases", r.root)
	defer r.tr.end(id)
	var acquire, upload, complete time.Duration
	leases := 0
	for ; ; leases++ {
		t0 := time.Now()
		grant, ok, err := co.Acquire("probe")
		acquire += time.Since(t0)
		if err != nil || !ok {
			break // the campaign is complete: every lease was granted and finished
		}
		seg := append(append([]byte(nil), header...), '\n')
		for _, e := range res.Experiments[grant.Start:grant.End] {
			line, err := json.Marshal(report.EntryFromExperiment(e))
			if err != nil {
				return err
			}
			seg = append(append(seg, line...), '\n')
		}
		t0 = time.Now()
		if _, err := co.AppendSegment(grant.Lease, grant.Gen, "probe", 0, seg); err != nil {
			return err
		}
		upload += time.Since(t0)
		t0 = time.Now()
		if err := co.Complete(grant.Lease, grant.Gen, "probe"); err != nil {
			return err
		}
		complete += time.Since(t0)
	}
	if want := n / leaseSize; leases != want {
		return fmt.Errorf("coordinator granted %d leases, want %d", leases, want)
	}
	r.metrics["coord.acquire_us"] = us(acquire) / float64(leases+1)
	r.metrics["coord.append_segment_us"] = us(upload) / float64(leases)
	r.metrics["coord.complete_us"] = us(complete) / float64(leases)
	return nil
}

// observerProbes run the first observerEntries entries of table_ckpt's
// plan with checkpointing, then with each observer on, which forfeits
// checkpointing; the ratios are what an observed campaign pays today.
func (r *layerRun) observerProbes() error {
	w := workloads[workloadIndex("table_ckpt")]
	a, err := apps.Get(w.App)
	if err != nil {
		return err
	}
	im, err := a.Build(a.Default)
	if err != nil {
		return err
	}
	regions, err := parseRegions(w.Regions)
	if err != nil {
		return err
	}
	cfg := core.Config{Image: im, Ranks: a.Default.Ranks, Injections: w.N, Regions: regions,
		Seed: r.seed, Parallelism: 2, CheckpointInterval: core.DefaultCheckpointInterval}
	cfg.Entries = core.Plan{Regions: regions, Injections: w.N}.Range(0, observerEntries)
	time1 := func(name string, c core.Config) (time.Duration, error) {
		return r.bestOf(name, func() error { _, err := core.Run(c); return err })
	}
	base, err := time1("core.Run(observers off)", cfg)
	if err != nil {
		return err
	}
	traced := cfg
	traced.TraceDiff = true
	d, err := time1("core.Run(trace-diff)", traced)
	if err != nil {
		return err
	}
	r.metrics["msgtrace.tracediff_ratio"] = d.Seconds() / base.Seconds()
	forensic := cfg
	forensic.Forensics = true
	if d, err = time1("core.Run(forensics)", forensic); err != nil {
		return err
	}
	r.metrics["core.forensics_ratio"] = d.Seconds() / base.Seconds()
	return nil
}
