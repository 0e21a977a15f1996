package core

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/image"
	"mpifault/internal/mpi"
	"mpifault/internal/rng"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// Golden captures the fault-free reference execution: the canonical
// output used for silent-corruption detection, and the per-rank
// instruction counts and received message volumes that parameterize the
// injection-space sampling (§4.3's b, m and t axes).  It carries the
// snapshots that execution took of itself (checkpoint.go), so Runs
// sharing one — concurrently too — restore from the same set, and the
// mpi.Config it ran with, which every job of theirs runs with too.  Do
// not copy it.
type Golden struct {
	Output    []byte
	Instrs    []uint64
	RecvBytes []uint64
	Result    *cluster.Result

	mpiCfg mpi.Config

	// tapes are the run's per-rank recordings (Result.Tapes): what an
	// experiment replays its injected rank against (solo.go) and what
	// trace-diff compares its ranks' outputs with; the tape positions of
	// the snapshots the run took of itself (Result.Snapshots) index them.
	tapes []mpi.Tape
	// recvFrom[r][s] is how many of RecvBytes[r] rank r pulled from rank s,
	// pulled[k][r][s] how many live rank r had at snapshot k; both are
	// filled by the first message experiment (messageTarget).
	recvOnce sync.Once
	recvFrom [][]uint64
	pulled   [][][]uint64
	// reads[r] is rank r's read index and its last PCs (dead.go), each
	// built by the first experiment that needs it.
	reads []rankReads
	// deps orders the tapes' events, for deciding deadlocks solo; built by
	// the first solo run that starves.
	depsOnce sync.Once
	deps     *mpi.Deps
}

// MaxInstrs returns the largest per-rank instruction count.
func (g *Golden) MaxInstrs() uint64 {
	var max uint64
	for _, n := range g.Instrs {
		if n > max {
			max = n
		}
	}
	return max
}

// goldenWallLimit is the wall-clock limit of a campaign's golden run, the
// one job it runs with no instruction budget (cluster.Job.WallLimit).
const goldenWallLimit = 10 * time.Second

// RunGolden executes the fault-free reference run under mpiCfg, with wall
// as its wall-clock limit.
func RunGolden(im *image.Image, ranks int, mpiCfg mpi.Config, wall time.Duration) (*Golden, error) {
	return runGolden(&Config{Image: im, Ranks: ranks}, mpiCfg, wall, nil)
}

// runGolden is RunGolden with what a campaign adds: the snapshots the
// run takes of itself when cfg.CheckpointInterval is set, at most
// DefaultMaxCheckpoints of them.  It is the one place the fault-free job
// is executed; built, when non-nil, sees every rank's machine before it
// runs (the campaignCtx.built test seam).
func runGolden(cfg *Config, mpiCfg mpi.Config, wall time.Duration, built func(*vm.Machine)) (*Golden, error) {
	job := cluster.Job{
		Image: cfg.Image, Size: cfg.Ranks, MPIConfig: mpiCfg, WallLimit: wall,
		RecordTapes: true,
		Checkpoints: cluster.CheckpointSpec{Interval: cfg.CheckpointInterval, Max: DefaultMaxCheckpoints},
	}
	if built != nil {
		job.Setup = func(_ int, m *vm.Machine, _ *mpi.Proc) { built(m) }
	}
	res := cluster.Run(job)
	if res.HangDetected {
		return nil, fmt.Errorf("core: golden run hung: %s", res.HangCause)
	}
	g := &Golden{Output: res.CanonicalOutput(), Result: res, mpiCfg: mpiCfg, tapes: res.Tapes, reads: make([]rankReads, len(res.Ranks))}
	// Name the rank whose failure ended the job, not a peer it took down.
	first := res.FirstFailure()
	culprit := slices.IndexFunc(res.Ranks, func(rr cluster.RankResult) bool { return first != nil && rr.Trap == first })
	if culprit < 0 {
		culprit = slices.IndexFunc(res.Ranks, func(rr cluster.RankResult) bool {
			return rr.Trap == nil || rr.Trap.Kind != vm.TrapExit || rr.Trap.Code != 0
		})
	}
	if culprit >= 0 {
		stderr := bytes.Split(bytes.TrimRight(res.Stderr[culprit], "\n"), []byte("\n"))
		return nil, fmt.Errorf("core: golden run rank %d failed: %v (last stderr line: %q)",
			culprit, res.Ranks[culprit].Trap, stderr[len(stderr)-1])
	}
	for _, rr := range res.Ranks {
		g.Instrs = append(g.Instrs, rr.Instrs)
		g.RecvBytes = append(g.RecvBytes, rr.Stats.TotalBytes())
	}
	return g, nil
}

// Experiment records one injection and its manifestation.
type Experiment struct {
	Region  Region
	Index   int
	Rank    int
	Trigger uint64 // instruction count, or received-byte offset for messages (messageTarget)
	Desc    string // what was flipped (filled in during the run)
	Outcome classify.Outcome
	// Detail is a short description of the job's terminal condition
	// (hang cause or failing trap), for logs and journals; empty for a
	// clean run.
	Detail string
	// Candidates is the size of the space a register injection sampled
	// from, RegisterSpaceBits once its trigger fired; 0 in every other
	// region.
	Candidates int
	// Forensics is the flight record of the injected rank, present only
	// when the campaign ran with Config.Forensics.
	Forensics *Forensics
}

// ID returns the experiment's stable plan identity (see PlanEntry.ID).
func (e *Experiment) ID() string {
	return PlanEntry{Region: e.Region, Index: e.Index}.ID()
}

// Unapplied reports whether the experiment finished without actually
// injecting a fault: the region had no eligible target ("no target",
// "no traffic", "no execution") or the trigger never fired.  Such
// experiments carry no classifiable manifestation, so campaigns surface
// their count and CI gates on it.
func (e *Experiment) Unapplied() bool {
	return e.Desc == "" || e.Desc == "no target" || e.Desc == "no traffic" ||
		e.Desc == "no execution"
}

// Config parameterizes an injection campaign for one application image.
type Config struct {
	Image *image.Image
	Ranks int
	// Injections is the per-region experiment count (the paper uses
	// 400-1000 per region, 2000 for some message rows).
	Injections int
	// Regions selects which table rows to run; nil means all eight.
	Regions []Region
	// Seed makes the whole campaign reproducible.
	Seed uint64
	// Parallelism bounds concurrently executing jobs; 0 picks a default.
	Parallelism int
	// Progress, when non-nil, is called after every finished experiment:
	// done counts this Run's finished experiments, total adds what the
	// current round has left (the whole campaign, for fixed n).
	Progress func(done, total int)
	// KeepExperiments retains the per-injection records in the result.
	KeepExperiments bool
	// Shard/NumShards restrict the run to shard Shard of the
	// NumShards-way partition of the entry list in force — the plan, or
	// Entries when set: every NumShards-th entry starting at Shard (see
	// Plan.Shard).  The zero value (0, 0) runs the whole list, as does
	// 0/1.  Because every experiment's random stream is derived from
	// (Seed, Region, Index) alone, the union of the K shard runs is
	// exactly the unsharded run at the same seed.
	Shard     int
	NumShards int
	// Entries, when non-nil, runs exactly these plan entries instead of
	// the whole plan or, for an adaptive campaign, its rounds — a shard
	// or a coordinator lease: any process running the same entries at the
	// same Seed produces the identical experiments.  Every entry must lie
	// inside the plan (Region listed in Regions, 0 <= Index < Injections,
	// an adaptive campaign's fixed-n cap).
	Entries []PlanEntry
	// Golden, when non-nil, reuses a previously computed golden run
	// instead of re-executing it — a worker holding many leases of one
	// campaign pays for the reference run once.  It is used as it is:
	// experiments restore from the snapshots it carries (those of a
	// Result.Golden whose Run had checkpointing on) and start at t=0 when
	// it carries none.  The golden must come from the identical
	// Image/Ranks (the caller's contract); the campaign's jobs run with
	// its mpi.Config.
	Golden *Golden
	// Completed maps experiment IDs (Experiment.ID) to already-finished
	// experiments, typically read back from a checkpoint journal.  Plan
	// entries found here are counted without being re-run, which is how
	// an interrupted campaign resumes.
	Completed map[string]Experiment
	// OnExperiment, when non-nil, is called once for each newly finished
	// experiment (never for Completed ones).  Calls are serialized, so a
	// journal append needs no extra locking, and are delivered in *plan
	// order*, round by round — an experiment finishing out of order is
	// held until its predecessors are delivered — so a fixed-seed
	// campaign journal is byte-identical regardless of parallelism,
	// dispatch order or checkpointing.  On interruption, finished
	// experiments past the first unfinished entry are flushed, still in
	// plan order, before Run returns.
	OnExperiment func(Experiment)
	// Stop, when non-nil and closed, stops dispatching new experiments;
	// in-flight ones finish (and still reach OnExperiment).  The Result
	// is then partial and marked Interrupted — pair with a journal and
	// Completed to resume later.
	Stop <-chan struct{}
	// Metrics, when non-nil, receives campaign telemetry: experiment
	// counters by outcome, plan/shard progress, in-flight depth, the
	// crash/hang-latency histograms, and per-job VM/MPI aggregates.
	// Nil (the default) records nothing and changes no behaviour —
	// fixed-seed outcomes are identical either way.
	Metrics *telemetry.Registry
	// Forensics attaches a flight recorder to every experiment's
	// injected rank and fills Experiment.Forensics: the last retired
	// PCs, the trap detail, and the injection-to-manifestation
	// instruction distance (§5.2's crash latency).  Off by default; it
	// observes without perturbing, so outcomes are unchanged.  It rides
	// the one execution path: solo or whole job, restored or from t=0,
	// the record is the same (every start point is at least the ring's
	// depth before the injection, checkpoint.go).
	Forensics bool
	// TraceDiff attaches, for Incorrect/Hang/Crash outcomes, the first
	// divergence of what the experiment's ranks sent, wrote, opened and
	// allocated from what the golden run's did to Experiment.Forensics —
	// the Okita-style fault localization, read off the tapes
	// (internal/msgtrace): a whole job records its ranks' tapes, a run
	// decided on the injected rank alone is its golden tape up to where
	// the rank stopped.  It only observes; fixed-seed outcomes, CSV and
	// journal order are identical with TraceDiff on or off.
	TraceDiff bool
	// CheckpointInterval, when nonzero, enables golden-run
	// checkpointing: the golden run takes a consistent snapshot of the
	// cluster at most every CheckpointInterval retired instructions, and
	// each experiment starts from the latest snapshot preceding its
	// injection epoch instead of t=0 (see checkpoint.go).  Fixed-seed
	// outcomes, CSV and journal are byte-identical with checkpointing on
	// or off.
	CheckpointInterval uint64
	// Adaptive selects the sequential-stopping planner (see adaptive.go
	// and internal/sampling): the campaign runs in deterministic rounds
	// and stops each region once its Wilson CI half-width reaches
	// TargetHalfWidth, instead of spending the fixed worst-case count
	// everywhere.  Run sizes Injections itself (the fixed-n cap,
	// NormalizeAdaptive) — callers leave it zero — and its rounds share
	// one Golden, so checkpoints are captured once.
	Adaptive bool
	// TargetHalfWidth is the adaptive stopping target d; 0 means
	// DefaultTargetHalfWidth (the paper's 4.9 %).
	TargetHalfWidth float64
	// Confidence is the adaptive CI level; 0 means DefaultConfidence (95 %).
	Confidence float64
	// RoundSize bounds how many experiments one adaptive round adds to a
	// single stratum; 0 means sampling.DefaultRoundSize.
	RoundSize int
	// AVFPriors supplies static per-region manifestation priors (from
	// the analysis AVF predictor) that size the adaptive pilot round;
	// regions without a prior assume the worst case 0.5.  Priors affect
	// only how fast strata converge, never the estimates.
	AVFPriors map[Region]float64
	// OnRound, when non-nil, is called after each adaptive round with
	// the planner's progress — per-stratum CI half-widths for the
	// -status line.  Calls are serialized with the round barrier.
	OnRound func(AdaptiveStats)
}

// Tally aggregates outcomes for one region.
type Tally struct {
	Region     Region
	Executions int
	Outcomes   [classify.NumOutcomes]int
}

// Errors returns the number of manifested faults.
func (t *Tally) Errors() int {
	return t.Executions - t.Outcomes[classify.Correct]
}

// ErrorRate returns the percentage of injections that manifested.
func (t *Tally) ErrorRate() float64 {
	if t.Executions == 0 {
		return 0
	}
	return 100 * float64(t.Errors()) / float64(t.Executions)
}

// ManifestPercent returns outcome o as a percentage of manifested errors,
// the denominator used in the paper's "Error Manifestations" columns.
func (t *Tally) ManifestPercent(o classify.Outcome) float64 {
	e := t.Errors()
	if e == 0 {
		return 0
	}
	return 100 * float64(t.Outcomes[o]) / float64(e)
}

// Result is a finished campaign: one tally per region, in table order.
type Result struct {
	Tallies     []Tally
	Golden      *Golden
	Experiments []Experiment
	// Unclassified counts experiments that finished without applying a
	// fault (see Experiment.Unapplied) — they carry no manifestation, so
	// callers should treat a nonzero count as a failed campaign.
	Unclassified int
	// Interrupted is set when Stop fired before the plan was exhausted;
	// tallies then cover only the experiments that finished.
	Interrupted bool
	// Checkpoints summarizes golden-run checkpoint usage; nil when
	// checkpointing was not enabled.
	Checkpoints *CheckpointStats
	// Solo counts the experiments run on their injected rank alone
	// (solo.go); zero when none was eligible.
	Solo SoloStats
	// Adaptive summarizes the sequential-stopping planner's rounds and
	// per-stratum convergence; nil for fixed-n campaigns.
	Adaptive *AdaptiveStats
}

// Tally returns the tally for a region, if present.
func (r *Result) Tally(region Region) (Tally, bool) {
	for _, t := range r.Tallies {
		if t.Region == region {
			return t, true
		}
	}
	return Tally{}, false
}

// Run executes the campaign cfg defines — an entry list (Entries when
// set, fixed-n and adaptive campaigns alike, else the fixed-n plan)
// narrowed by the shard filter, or else the adaptive rounds — as one loop:
// ask the campaign's Contract what the recorded experiments (Completed,
// on a resume) still lack, run exactly those, record them, and ask again
// until nothing is missing or Stop fires.  A fixed-n campaign is the
// one-round case.  The golden run starts before the first round with
// work, and every round shares it and its checkpoints.  A host panic in
// an experiment fails the campaign with an error naming the experiment;
// dispatching stops, and the experiments that finished still reach
// OnExperiment.
func Run(cfg Config) (*Result, error) { return run(cfg, nil) }

// run is Run with the campaignCtx.built test seam.
func run(cfg Config, built func(*vm.Machine)) (*Result, error) {
	if cfg.Adaptive {
		if _, err := NormalizeAdaptive(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.Injections <= 0 {
		cfg.Injections = 100
	}
	if len(cfg.Regions) == 0 {
		cfg.Regions = Regions()
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)/2 + 1
	}
	if cfg.NumShards <= 0 {
		cfg.NumShards = 1
	}
	if cfg.Shard < 0 || cfg.Shard >= cfg.NumShards {
		return nil, fmt.Errorf("core: shard %d/%d out of range", cfg.Shard, cfg.NumShards)
	}

	contract := Contract{Regions: cfg.Regions, Injections: cfg.Injections, Entries: cfg.Entries}
	if cfg.Adaptive && cfg.Entries == nil {
		contract.Adaptive, contract.Confidence, contract.Target, contract.RoundSize =
			true, cfg.Confidence, cfg.TargetHalfWidth, cfg.RoundSize
		contract.Priors = EffectivePriors(cfg.Regions, cfg.AVFPriors)
	} else if cfg.NumShards > 1 {
		if contract.Entries == nil {
			contract.Entries = Plan{Regions: cfg.Regions, Injections: cfg.Injections}.Range(0, len(cfg.Regions)*cfg.Injections)
		}
		contract.Entries = shardOf(contract.Entries, cfg.Shard, cfg.NumShards)
	}

	met := newCampaignMeters(cfg.Metrics)
	met.traceDiff = cfg.TraceDiff
	var rounds *roundMeters
	if contract.Adaptive {
		rounds = newRoundMeters(&cfg)
	}
	recorded := make(map[string]Experiment, len(cfg.Completed))
	for id, e := range cfg.Completed {
		recorded[id] = e
	}
	var cctx *campaignCtx
	for first := true; ; first = false {
		done, missing, stats, err := contract.Frontier(recorded)
		if err != nil {
			return nil, err
		}
		if first {
			// Resumed experiments never run; count them as planned and done.
			met.planned.Add(uint64(len(done)))
			met.resumed.Add(uint64(len(done)))
		}
		if rounds != nil {
			rounds.announce(stats)
		}
		if len(missing) > 0 && !stopped(cfg.Stop) {
			if cctx == nil {
				if cctx, err = newCampaignCtx(&cfg, met, built); err != nil {
					return nil, err
				}
			}
			met.planned.Add(uint64(len(missing)))
			if err := cctx.runRound(missing, recorded); err != nil {
				return nil, err
			}
			continue
		}

		res := contract.collect(done, recorded, stats)
		res.Golden, res.Interrupted = cfg.Golden, len(missing) > 0
		if cctx != nil {
			res.Golden = cctx.golden
			if cfg.CheckpointInterval > 0 {
				res.Checkpoints = &CheckpointStats{
					Taken: len(cctx.snaps), Hits: cctx.hits.Load(), Misses: cctx.misses.Load(),
					InstrsSkipped: cctx.skipped.Load(),
				}
			}
			res.Solo = cctx.solo.stats()
		}
		if !cfg.KeepExperiments {
			res.Experiments = nil
		}
		return res, nil
	}
}

// newCampaignCtx readies the state a campaign's rounds share: cfg.Golden,
// or a golden run of its own with its checkpoints, and what derives from
// it.
func newCampaignCtx(cfg *Config, met *campaignMeters, built func(*vm.Machine)) (*campaignCtx, error) {
	golden := cfg.Golden
	if golden == nil {
		var err error
		if golden, err = runGolden(cfg, mpi.Config{}, goldenWallLimit, built); err != nil {
			return nil, err
		}
		met.ckptTaken.Add(uint64(len(golden.Result.Snapshots)))
	}
	c := &campaignCtx{
		cfg: cfg, golden: golden, dict: NewDictionary(cfg.Image), budget: golden.MaxInstrs() * budgetMultiplier,
		base: rng.New(cfg.Seed), met: met, built: built,
	}
	if cfg.CheckpointInterval > 0 {
		c.snaps = golden.Result.Snapshots
	}
	return c, nil
}

// runRound runs one frontier's entries and records every experiment that
// finishes in recorded.  OnExperiment sees them in the frontier's order
// (the plan's own, the order a serial campaign produces); dispatch order
// is free to differ: with checkpoints available, experiments are grouped
// by the checkpoint they restore from, so concurrent jobs share one
// snapshot's backing pages and the residual prefixes they replay.  Stop
// ends dispatching; a panic fails the round.
func (c *campaignCtx) runRound(entries []PlanEntry, recorded map[string]Experiment) error {
	cfg, met := c.cfg, c.met
	experiments := make([]Experiment, len(entries))
	finished := make([]bool, len(entries))
	todo := make([]int, len(entries))
	for i, pe := range entries {
		experiments[i] = Experiment{Region: pe.Region, Index: pe.Index}
		todo[i] = i
	}
	if len(c.snaps) > 0 {
		bucket := make([]int, len(entries))
		for i := range experiments {
			bucket[i] = c.bucketOf(&experiments[i])
		}
		sort.SliceStable(todo, func(i, j int) bool {
			return bucket[todo[i]] < bucket[todo[j]]
		})
	}

	var (
		wg          sync.WaitGroup
		next        = make(chan int)
		mu          sync.Mutex
		total       = c.progressed + len(entries)
		deliverNext int
		// failure is the first experiment's panic; failed closes with it.
		failure  error
		failOnce sync.Once
		failed   = make(chan struct{})
	)
	// deliverLocked hands finished experiments to OnExperiment in order;
	// called with mu held.
	deliverLocked := func() {
		for ; deliverNext < len(entries) && finished[deliverNext]; deliverNext++ {
			if cfg.OnExperiment != nil {
				cfg.OnExperiment(experiments[deliverNext])
			}
		}
	}
	scratch := sync.Pool{New: func() any { return &expScratch{} }}
	for w := 0; w < cfg.Parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range next {
				e := &experiments[idx]
				met.started.Inc()
				met.inflight.Add(1)
				sc := scratch.Get().(*expScratch)
				c.base.DeriveInto(&sc.r, uint64(e.Region), uint64(e.Index))
				err := c.runGuarded(e, sc)
				scratch.Put(sc)
				met.inflight.Add(-1)
				if err != nil {
					failOnce.Do(func() { failure = err; close(failed) })
					return
				}
				met.observe(e)
				mu.Lock()
				finished[idx] = true
				c.progressed++
				d := c.progressed
				deliverLocked()
				mu.Unlock()
				if cfg.Progress != nil {
					cfg.Progress(d, total)
				}
			}
		}()
	}
dispatch:
	for _, idx := range todo {
		// Poll Stop first so a fired stop wins over a ready worker.
		if stopped(cfg.Stop) {
			break
		}
		select {
		case <-cfg.Stop:
			break dispatch
		case <-failed:
			break dispatch
		case next <- idx:
		}
	}
	close(next)
	wg.Wait()
	// Flush finished-but-undelivered experiments (an interrupt leaves
	// gaps): still in order, unfinished entries skipped.
	for ; deliverNext < len(entries); deliverNext++ {
		if finished[deliverNext] && cfg.OnExperiment != nil {
			cfg.OnExperiment(experiments[deliverNext])
		}
	}
	if failure != nil {
		return failure
	}
	for i := range experiments {
		if finished[i] {
			recorded[experiments[i].ID()] = experiments[i]
		}
	}
	return nil
}

// campaignCtx bundles the per-campaign immutable state the workers share,
// plus the checkpoint-usage counters.
type campaignCtx struct {
	cfg    *Config
	golden *Golden
	dict   *Dictionary
	budget uint64
	base   *rng.Rand
	// snaps are the golden run's snapshots; nil with checkpointing off.
	snaps []*cluster.Snapshot
	// wholeJobs skips solo runs and runs every rank of a whole job live:
	// the reference arm of export_test.go's SoloDifferential.  Run never
	// sets it.
	wholeJobs bool
	// built, when set, is shown every machine an experiment builds, before
	// it runs: export_test.go's MachineInstrs counts what they execute.
	// Run never sets it.
	built func(*vm.Machine)
	met   *campaignMeters

	// Local (per-campaign) counters: the telemetry registry may be shared
	// across campaigns, so Result.Checkpoints and Result.Solo cannot be
	// read back from it.
	hits, misses, skipped atomic.Uint64
	solo                  soloCounters
	// progressed counts the experiments finished across rounds, for
	// Config.Progress.
	progressed int
}

// expScratch is the pooled per-experiment scratch: the experiment and
// fault RNG streams (re-seeded in place) and the forensics flight recorder
// (ring reset, storage kept).
type expScratch struct {
	r, faultRng rng.Rand
	rec         *vm.FlightRecorder
}

// bucketOf peeks at the checkpoint an experiment will restore from
// without perturbing its random stream (Derive is pure), for grouping
// the dispatch order.  -1 means a scratch start.
func (c *campaignCtx) bucketOf(e *Experiment) int {
	var r rng.Rand
	c.base.DeriveInto(&r, uint64(e.Region), uint64(e.Index))
	probe := *e
	k, _, _ := c.aim(&probe, &r)
	return k
}

// aim draws e's rank and trigger — the head of its random stream r — and
// returns the checkpoint it starts from (-1: t=0) and, for a message
// fault, the injector armed at its byte.  ok is false when the rank offers
// nothing to inject into; e.Desc then says what was missing.
func (c *campaignCtx) aim(e *Experiment, r *rng.Rand) (ckpt int, mi MessageInjector, ok bool) {
	e.Rank = r.Intn(c.cfg.Ranks)
	if e.Region == RegionMessage {
		vol := c.golden.RecvBytes[e.Rank]
		if vol == 0 {
			e.Desc = "no traffic"
			return -1, mi, false
		}
		e.Trigger = r.Uint64n(vol)
		ckpt, mi = c.messageTarget(e.Rank, e.Trigger)
		mi.Bit = uint(r.Intn(8))
		return ckpt, mi, true
	}
	if c.golden.Instrs[e.Rank] == 0 {
		// Possible for over-provisioned worlds: no execution to inject
		// into, like the zero-traffic message case.
		e.Desc = "no execution"
		return -1, mi, false
	}
	// Injection time: uniform over the target rank's execution, the t axis
	// of the sampling space.
	e.Trigger = 1 + r.Uint64n(c.golden.Instrs[e.Rank])
	return c.indexForInstr(e.Rank, e.Trigger), mi, true
}

// messageTarget resolves a message trigger — offset k into the bytes rank
// receives, in canonical order: each sender's stream to it whole, senders
// ascending, which unlike arrival order is the same in every run — to the
// checkpoint it starts from (-1: t=0) and the injector on that byte.
// Every execution of the experiment, solo or whole, observed or not, in
// whichever process, arms this one address (DESIGN.md §3.4).
func (c *campaignCtx) messageTarget(rank int, k uint64) (ckpt int, mi MessageInjector) {
	g := c.golden
	// Built by the first message experiment, so that a campaign without
	// one — every set-up run — pays nothing.
	g.recvOnce.Do(func() {
		n := len(g.tapes)
		g.recvFrom = make([][]uint64, n)
		for r, t := range g.tapes {
			g.recvFrom[r] = t.PulledBytes(len(t), n)
		}
		g.pulled = make([][][]uint64, len(g.Result.Snapshots))
		for k, s := range g.Result.Snapshots {
			g.pulled[k] = make([][]uint64, n)
			for r, t := range g.tapes {
				if s.RankLive(r) {
					g.pulled[k][r] = t.PulledBytes(s.Ranks[r].TapePos, n)
				}
			}
		}
	})
	mi.Offset = k
	for from := g.recvFrom[rank]; mi.Offset >= from[mi.Sender]; mi.Sender++ {
		mi.Offset -= from[mi.Sender]
	}
	// The injection clock is the rank's when it pulled the packet that
	// holds the byte; the injector restored at a checkpoint starts from what
	// the rank had pulled there.
	mi.at = g.tapes[rank].PullClock(mi.Sender, mi.Offset)
	if ckpt = c.indexForInstr(rank, mi.at); ckpt >= 0 {
		mi.seen = g.pulled[ckpt][rank][mi.Sender]
	}
	return ckpt, mi
}

// startPoint counts the experiment as a checkpoint hit or miss — once,
// however many times it ends up being run — and returns the snapshot it
// starts from: checkpoint k, or nil (t=0) for k < 0.
func (c *campaignCtx) startPoint(k int) *cluster.Snapshot {
	if c.cfg.CheckpointInterval == 0 {
		return nil // checkpointing is off (Run zeroes the interval): nothing to count
	}
	if k < 0 {
		c.misses.Add(1)
		c.met.ckptMisses.Inc()
		return nil
	}
	c.hits.Add(1)
	c.met.ckptHits.Inc()
	return c.snaps[k]
}

// skip accounts for n golden-prefix instructions a restored machine did
// not execute, although its final count includes them.
func (c *campaignCtx) skip(n uint64) {
	c.skipped.Add(n)
	c.met.instrsSkipped.Add(int64(n))
}

// runGuarded is runOne with a host panic turned into an error naming the
// experiment, so that the campaign fails loudly on it.
func (c *campaignCtx) runGuarded(e *Experiment, sc *expScratch) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("core: experiment %s (seed %d, rank %d, trigger %d) panicked: %v\n%s",
				e.ID(), c.cfg.Seed, e.Rank, e.Trigger, p, debug.Stack())
		}
	}()
	runOne(c, e, sc)
	return nil
}

// runOne performs a single injection experiment.
func runOne(c *campaignCtx, e *Experiment, sc *expScratch) {
	cfg, golden, r := c.cfg, c.golden, &sc.r
	ckpt, armed, ok := c.aim(e, r)
	if !ok {
		e.Outcome = classify.Correct
		return
	}

	var (
		mi         MessageInjector // read once the run that used it has returned
		applied    string
		candidates int
		decided    bool     // by the injected rank alone
		solo       bool     // a solo run is executing: its trigger may halt it early
		end        earlyEnd // why it did
	)
	job := cluster.Job{
		Image:     cfg.Image,
		Size:      cfg.Ranks,
		MPIConfig: golden.mpiCfg,
		Budget:    c.budget,
		Metrics:   cfg.Metrics,
		Restore:   c.startPoint(ckpt),
	}

	// The flight recorder rides the existing Tracer hook on the injected
	// rank only; with forensics disabled the job runs hook-free.
	var rec *vm.FlightRecorder
	if cfg.Forensics {
		if sc.rec == nil {
			sc.rec = vm.NewFlightRecorder(forensicsDepth)
		}
		rec = sc.rec
		job.Tracer = rec
		job.TraceRank = e.Rank
	}

	if e.Region == RegionMessage {
		job.Setup = func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank == e.Rank {
				// A fresh injector on the same byte for each run of the job.
				mi = armed
				p.RecvHook = mi.Hook
				if solo {
					end.injected = mi.at
					c.converge(m, p, e.Rank, &end)
				}
			}
		}
	} else {
		region := e.Region
		r.SplitInto(&sc.faultRng)
		faultRng := &sc.faultRng
		job.Setup = func(rank int, m *vm.Machine, p *mpi.Proc) {
			if rank != e.Rank {
				return
			}
			m.TriggerAt = e.Trigger
			m.TriggerFn = func(m *vm.Machine) *vm.Trap {
				var site Site
				switch region {
				case RegionRegularReg:
					applied, site = ApplyRegisterFault(m, faultRng)
					candidates = RegisterSpaceBits
				case RegionFPReg:
					applied, site = ApplyFPRegisterFault(m, faultRng)
				case RegionText, RegionData, RegionBSS:
					applied, site = ApplyStaticFault(m, c.dict, region, faultRng)
				case RegionHeap:
					applied, site = ApplyHeapFault(m, faultRng)
				case RegionStack:
					applied, site = ApplyStackFault(m, faultRng)
				}
				if solo {
					if end.dead = c.deadAt(m, e.Rank, site); end.dead != notDead {
						return &vm.Trap{Kind: vm.TrapKilled, PC: m.PC, Msg: "dead at injection"}
					}
					end.injected = m.Instrs
					c.converge(m, p, e.Rank, &end)
				}
				return nil
			}
		}
	}
	if c.built != nil {
		setup := job.Setup
		job.Setup = func(rank int, m *vm.Machine, p *mpi.Proc) { c.built(m); setup(rank, m, p) }
	}
	var from []int // where the job's ranks start on their tapes, for trace-diff
	if cfg.TraceDiff {
		from = tapeStarts(job.Restore, cfg.Ranks)
	}
	if !c.wholeJobs {
		// Solo first; a departure runs the whole job below, its peers
		// ghosts, arming the identical fault from the same stream.
		stream := sc.faultRng
		if rec != nil {
			rec.Reset()
		}
		solo = true
		res, ok := c.runSolo(e, job, &end)
		solo, decided = false, ok
		if decided {
			if rec != nil {
				if end.dead != notDead || end.converged {
					c.replayEnd(e.Rank, rec)
				}
				e.Forensics = buildForensics(e, rec, res.Trap, res.Instrs, vm.StopTrap)
			}
			if cfg.TraceDiff {
				attachDivergence(e, golden.tapes, from, c.soloTapes(from, e.Rank, res), e.Rank)
			}
		} else {
			sc.faultRng = stream
		}
	}

	if !decided {
		if rec != nil {
			rec.Reset()
		}
		job.RecordTapes = cfg.TraceDiff
		if !c.wholeJobs {
			job.Ghosts = &cluster.Ghosts{Live: e.Rank, Golden: golden.Result, Snapshots: c.snaps}
		}
		res := cluster.Run(job)
		c.ranWhole(e.Rank, res)
		e.Outcome = classify.Classify(res, golden.Output)
		e.Detail = res.FailureSummary()
		if rec != nil {
			rr := &res.Ranks[e.Rank]
			e.Forensics = buildForensics(e, rec, rr.Trap, rr.Instrs, rr.Reason)
		}
		if cfg.TraceDiff {
			attachDivergence(e, golden.tapes, from, res.Tapes, failedRank(res))
		}
	}
	if e.Region == RegionMessage {
		_, e.Desc = mi.Report()
	} else {
		e.Desc = applied
		e.Candidates = candidates
	}
}
