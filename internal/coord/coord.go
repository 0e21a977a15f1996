// Package coord is the campaign control plane: a long-running
// coordinator that accepts a campaign spec, splits the core.Plan into
// bounded leases, hands them to pull-based workers over HTTP, ingests
// the JSONL journal segments the workers stream back, and serves a live
// cluster view — the FINJ-style "orchestrator plus injection engines"
// architecture for running millions of experiments across machines.
//
// The correctness anchor is the same one sharding established: every
// experiment's random stream is derived from (seed, region, index)
// alone, so any worker can run any plan entry and produce the identical
// outcome.  That makes the whole protocol forgiving by construction:
//
//   - Leases are bounded lists of plan entries with a deadline — chunks
//     of the plan for a fixed-n campaign, chunks of the adaptive
//     frontier otherwise.  Workers renew their lease by heartbeat; a lease whose deadline
//     passes (slow or dead worker) returns to the queue and is re-issued
//     to the next worker that asks — work-stealing with no fencing
//     beyond a per-lease generation counter that invalidates stale
//     renewals and uploads.
//   - Results arrive as append-only JSONL journal segments (the exact
//     bytes a single-process campaign journal contains), uploaded in
//     chunks addressed by byte offset, so an interrupted upload resumes
//     where it left off.  Ingestion reuses internal/report's
//     truncation-tolerant parser: the torn tail of a dead worker's last
//     chunk is discarded, its intact lines are kept.
//   - Duplicate results — a stolen lease re-runs experiments its dead
//     owner may already have uploaded — resolve idempotently: the
//     records must agree (report.SameOutcome), and a disagreement fails
//     the campaign loudly, because it means determinism itself broke.
//
// The coordinator holds no campaign state beyond the results it has
// ingested.  When every lease has completed, an adaptive campaign asks
// core.AdaptiveContract.Frontier what those results still lack and cuts
// it into the next round's leases — the same question a single-process
// core.RunAdaptive asks between rounds, so the two run the same rounds.
// When nothing is missing, report.Assemble — the check faultmerge runs —
// accepts the result set and the final tables are rendered exactly as a
// single-process campaign would: the /result.csv bytes are identical to
// `faultcampaign -csv -quiet` at the same spec — the determinism gate's
// cluster twin.
package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

// Spec is a campaign submission: what to run and how to slice it.  It
// deliberately mirrors the faultcampaign flags so the coordinator's
// final CSV is byte-comparable to a single-process run of the same
// parameters.
type Spec struct {
	App        string   `json:"app"`
	Injections int      `json:"injections"`
	Seed       uint64   `json:"seed"`
	Regions    []string `json:"regions,omitempty"` // short names; empty = all eight
	// TraceDiff makes every worker localize Incorrect/Hang/Crash outcomes
	// against its golden run's tapes (faultcampaign -trace-diff).  The
	// tapes are a pure function of (app, seed, ranks), so every worker
	// computes the identical digest — the e2e gate compares the hashes
	// they log.
	TraceDiff bool `json:"trace_diff,omitempty"`
	// Adaptive switches the campaign to the sequential-stopping planner
	// (faultcampaign -adaptive): instead of pre-splitting the fixed plan,
	// leases are cut round by round from core.AdaptiveContract.Frontier
	// over the results ingested so far.  Each round is a barrier — its
	// leases must all complete before the frontier is asked again — and
	// the coordinator keeps no planner between barriers: what runs next
	// is a pure function of (contract, recorded outcomes), and every
	// outcome a pure function of (seed, region, index), so the final CSV
	// is byte-identical to a single-process adaptive run of the same
	// spec, whatever the worker count.  The campaign stops each region
	// once its Wilson CI half-width reaches TargetHalfWidth.  Injections
	// must be zero on submission; Submit sizes it to the fixed-n cap.
	Adaptive bool `json:"adaptive,omitempty"`
	// Confidence, TargetHalfWidth and RoundSize pin the estimation
	// contract; zero values take the core defaults (95 %, 4.9 %,
	// sampling.DefaultRoundSize).
	Confidence      float64 `json:"confidence,omitempty"`
	TargetHalfWidth float64 `json:"target_half_width,omitempty"`
	RoundSize       int     `json:"round_size,omitempty"`
	// Priors are the effective pilot priors in region order.  Submit
	// fills them from the app's static AVF estimates when absent; they
	// ride in every lease grant so worker journal headers record the
	// same contract the coordinator's frontier replays.
	Priors []float64 `json:"priors,omitempty"`
	// LeaseSize bounds how many plan entries one lease carries; small
	// leases steal cheaply, large leases amortize the worker's golden
	// run.  0 means DefaultLeaseSize.
	LeaseSize int `json:"lease_size,omitempty"`
	// LeaseTTLMillis is the lease deadline: a worker that has not
	// renewed within this long forfeits the lease.  0 means
	// DefaultLeaseTTL.
	LeaseTTLMillis int64 `json:"lease_ttl_ms,omitempty"`
}

// Defaults for unset Spec fields.
const (
	DefaultLeaseSize = 32
	DefaultLeaseTTL  = 15 * time.Second
)

// Config parameterizes a Coordinator.
type Config struct {
	// Metrics receives the cluster telemetry (lease state, ingestion
	// counters, per-worker throughput).  Nil records nothing.
	Metrics *telemetry.Registry
	// Dir, when non-empty, spools every ingested segment to
	// <Dir>/lease-NNNN.genG.jsonl — each file a valid (possibly
	// truncated) campaign journal, so `faultmerge -coord <Dir>`
	// reconstructs the campaign from the coordinator's own layout.
	Dir string
	// Now is the clock; nil means time.Now.  Injectable for tests.
	Now func() time.Time
	// MaxLeaseFailures bounds how often one lease may be explicitly
	// failed by workers before the campaign is declared failed (a
	// deterministically failing lease would otherwise retry forever).
	// 0 means 8.
	MaxLeaseFailures int
}

type leaseState int

const (
	leasePending leaseState = iota
	leaseActive
	leaseDone
)

// lease is one bounded list of plan entries, cut from the plan (fixed-n)
// or from one adaptive round's frontier.
type lease struct {
	idx      int
	start    int              // offset of entries[0] in the list the lease was cut from
	entries  []core.PlanEntry // the exact entries this lease runs, in execution order
	ids      map[string]bool  // their IDs: the membership set for ingestion
	gen      int              // incremented at every grant; stale gens are fenced out
	state    leaseState
	worker   string
	deadline time.Time
	expired  bool // had an owner and timed out; next grant counts as stolen
	stolen   int
	failures int
	segs     map[int]*segment // per-generation upload buffers
}

// segment is the append-only upload buffer of one lease generation.
type segment struct {
	data []byte
	path string // spool file, "" when in-memory only
}

type workerState struct {
	lease    int // -1 when idle
	results  int
	lastSeen time.Time
}

// campaign is the coordinator's single active campaign.
type campaign struct {
	spec     Spec
	ranks    int
	header   report.JournalHeader
	contract core.AdaptiveContract // adaptive campaigns: what Frontier replays
	ttl      time.Duration

	leases  []*lease
	queue   []int // pending lease indices, FIFO
	results map[string]core.Experiment
	workers map[string]*workerState

	planned int // total entries cut into leases so far (grows by the round when adaptive)

	doneLeases   int
	duplicates   int
	unclassified int
	started      time.Time
	failedErr    error
	done         chan struct{} // closed on completion or failure
	csv          []byte        // final CSV bytes on success
}

// Coordinator serves one campaign to any number of workers.
type Coordinator struct {
	cfg Config
	met *coordMeters

	mu sync.Mutex
	c  *campaign
}

// New returns an idle coordinator; submit a campaign with Submit or via
// POST /api/campaign.
func New(cfg Config) *Coordinator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.MaxLeaseFailures <= 0 {
		cfg.MaxLeaseFailures = 8
	}
	return &Coordinator{cfg: cfg, met: newCoordMeters(cfg.Metrics)}
}

// coordMeters pre-resolves the cluster metrics (nil-safe registry).
type coordMeters struct {
	reg            *telemetry.Registry
	leases         *telemetry.Counter
	granted        *telemetry.Counter
	completed      *telemetry.Counter
	expired        *telemetry.Counter
	stolen         *telemetry.Counter
	active         *telemetry.Gauge
	results        *telemetry.Counter
	duplicates     *telemetry.Counter
	segmentBytes   *telemetry.Counter
	workers        *telemetry.Gauge
	planned        *telemetry.Counter
	perWorker      map[string]*telemetry.Counter
	perWorkerMutex sync.Mutex
}

func newCoordMeters(reg *telemetry.Registry) *coordMeters {
	return &coordMeters{
		reg:          reg,
		leases:       reg.Counter(telemetry.MetricCoordLeases),
		granted:      reg.Counter(telemetry.MetricCoordLeasesGranted),
		completed:    reg.Counter(telemetry.MetricCoordLeasesCompleted),
		expired:      reg.Counter(telemetry.MetricCoordLeasesExpired),
		stolen:       reg.Counter(telemetry.MetricCoordLeasesStolen),
		active:       reg.Gauge(telemetry.MetricCoordLeasesActive),
		results:      reg.Counter(telemetry.MetricCoordResults),
		duplicates:   reg.Counter(telemetry.MetricCoordDuplicates),
		segmentBytes: reg.Counter(telemetry.MetricCoordSegmentBytes),
		workers:      reg.Gauge(telemetry.MetricCoordWorkers),
		planned:      reg.Counter(telemetry.MetricCoordPlanTotal),
		perWorker:    map[string]*telemetry.Counter{},
	}
}

func (m *coordMeters) worker(name string) *telemetry.Counter {
	m.perWorkerMutex.Lock()
	defer m.perWorkerMutex.Unlock()
	c := m.perWorker[name]
	if c == nil {
		c = m.reg.Counter(telemetry.WorkerMetric(name))
		m.perWorker[name] = c
	}
	return c
}

// priorsMap rebuilds the region-keyed prior map from the spec's
// region-ordered slice; nil when the lengths disagree (no priors yet).
func priorsMap(regions []core.Region, priors []float64) map[core.Region]float64 {
	if len(priors) != len(regions) {
		return nil
	}
	m := make(map[core.Region]float64, len(regions))
	for i, r := range regions {
		m[r] = priors[i]
	}
	return m
}

// specHeader builds the journal header a worker running this spec
// produces, without building the app image: the adaptive estimation
// contract comes from the spec.  Coordinator ingestion compares worker
// segment headers against this, so the two constructions must never
// drift.
func specHeader(spec Spec, ranks int, regions []core.Region) report.JournalHeader {
	return report.CampaignHeader(spec.App, core.Config{
		Ranks:           ranks,
		Injections:      spec.Injections,
		Regions:         regions,
		Seed:            spec.Seed,
		Adaptive:        spec.Adaptive,
		Confidence:      spec.Confidence,
		TargetHalfWidth: spec.TargetHalfWidth,
		RoundSize:       spec.RoundSize,
		AVFPriors:       priorsMap(regions, spec.Priors),
	})
}

// Submit installs the campaign.  A coordinator runs exactly one
// campaign; a second submission is rejected.
func (co *Coordinator) Submit(spec Spec) error {
	a, err := apps.Get(spec.App)
	if err != nil {
		return err
	}
	regions := core.Regions()
	if len(spec.Regions) > 0 {
		regions = regions[:0]
		for _, s := range spec.Regions {
			r, err := core.ParseRegion(s)
			if err != nil {
				return err
			}
			regions = append(regions, r)
		}
	}
	if spec.LeaseSize <= 0 {
		spec.LeaseSize = DefaultLeaseSize
	}
	ttl := DefaultLeaseTTL
	if spec.LeaseTTLMillis > 0 {
		ttl = time.Duration(spec.LeaseTTLMillis) * time.Millisecond
	}
	spec.LeaseTTLMillis = ttl.Milliseconds()

	if spec.Adaptive {
		// Normalize the estimation contract exactly like a single-process
		// RunAdaptive would, so the header — and hence every worker's
		// round schedule — pins the same numbers.
		ccfg := core.Config{
			Adaptive:        true,
			Injections:      spec.Injections,
			Regions:         regions,
			Confidence:      spec.Confidence,
			TargetHalfWidth: spec.TargetHalfWidth,
			RoundSize:       spec.RoundSize,
		}
		cap, err := core.NormalizeAdaptive(&ccfg)
		if err != nil {
			return err
		}
		spec.Injections = cap
		spec.Confidence = ccfg.Confidence
		spec.TargetHalfWidth = ccfg.TargetHalfWidth
		spec.RoundSize = ccfg.RoundSize
		if len(spec.Priors) != len(regions) {
			// The pilot priors come from the app's static AVF estimates —
			// the same pipeline faultcampaign -adaptive runs, so the
			// schedules agree however the campaign is executed.
			im, err := a.Build(a.Default)
			if err != nil {
				return fmt.Errorf("coord: build %s: %v", spec.App, err)
			}
			labels, err := analysis.AVFPriors(im)
			if err != nil {
				return err
			}
			m, err := core.PriorsFromLabels(labels)
			if err != nil {
				return err
			}
			spec.Priors = core.EffectivePriors(regions, m)
		}
	} else if spec.Injections <= 0 {
		return fmt.Errorf("coord: injections must be positive")
	}

	short := make([]string, len(regions))
	for i, r := range regions {
		short[i] = r.Short()
	}
	spec.Regions = short
	c := &campaign{
		spec:    spec,
		ranks:   a.Default.Ranks,
		ttl:     ttl,
		header:  specHeader(spec, a.Default.Ranks, regions),
		results: map[string]core.Experiment{},
		workers: map[string]*workerState{},
		done:    make(chan struct{}),
		started: co.cfg.Now(),
	}
	var entries []core.PlanEntry
	if spec.Adaptive {
		c.contract = core.AdaptiveContract{
			Confidence: spec.Confidence, Target: spec.TargetHalfWidth, RoundSize: spec.RoundSize,
			Regions: regions, Priors: spec.Priors,
		}
		// Cut only the pilot round; later rounds are cut at the barrier
		// in finishLeaseLocked, once this round's results are in.
		if _, entries, _, err = c.contract.Frontier(core.RecordedIn(c.results)); err != nil {
			return err
		}
	} else {
		plan := core.Plan{Regions: regions, Injections: spec.Injections}
		entries = plan.Range(0, plan.Total())
	}
	c.cutLeases(entries)

	co.mu.Lock()
	defer co.mu.Unlock()
	if co.c != nil {
		return fmt.Errorf("coord: a campaign is already loaded (app %s seed %d)", co.c.spec.App, co.c.spec.Seed)
	}
	if co.cfg.Dir != "" {
		if err := os.MkdirAll(co.cfg.Dir, 0o755); err != nil {
			return err
		}
	}
	co.c = c
	co.met.leases.Add(uint64(len(c.leases)))
	co.met.planned.Add(uint64(c.planned))
	return nil
}

// cutLeases queues entries — the whole plan, or one adaptive round's
// frontier — as leases of at most LeaseSize entries each, in order: the
// order a single-process campaign executes them.
func (c *campaign) cutLeases(entries []core.PlanEntry) {
	c.planned += len(entries)
	for start := 0; start < len(entries); start += c.spec.LeaseSize {
		end := start + c.spec.LeaseSize
		if end > len(entries) {
			end = len(entries)
		}
		l := &lease{idx: len(c.leases), start: start, entries: entries[start:end],
			ids: make(map[string]bool, end-start), segs: map[int]*segment{}}
		for _, pe := range l.entries {
			l.ids[pe.ID()] = true
		}
		c.leases = append(c.leases, l)
		c.queue = append(c.queue, l.idx)
	}
}

// Done returns a channel closed when the campaign completes or fails.
func (co *Coordinator) Done() <-chan struct{} {
	co.mu.Lock()
	defer co.mu.Unlock()
	if co.c == nil {
		return nil
	}
	return co.c.done
}

// ResultCSV returns the final campaign CSV — byte-identical to a
// single-process `faultcampaign -csv -quiet` of the same spec — and the
// unclassified-experiment count, or an error while the campaign is
// still running or has failed.
func (co *Coordinator) ResultCSV() ([]byte, int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	switch {
	case co.c == nil:
		return nil, 0, fmt.Errorf("coord: no campaign loaded")
	case co.c.failedErr != nil:
		return nil, 0, co.c.failedErr
	case co.c.csv == nil:
		return nil, 0, fmt.Errorf("coord: campaign not complete")
	}
	return co.c.csv, co.c.unclassified, nil
}

// now is the injected clock.
func (co *Coordinator) now() time.Time { return co.cfg.Now() }

// sweepLocked returns every active lease whose deadline has passed to
// the queue, ingesting the intact lines of its partial segment first —
// a dead worker's finished experiments are not lost, and the re-run of
// the stolen lease resolves them as duplicates.  Called with co.mu held.
func (co *Coordinator) sweepLocked() {
	c := co.c
	if c == nil || c.failedErr != nil {
		return
	}
	now := co.now()
	for _, l := range c.leases {
		if l.state != leaseActive || now.Before(l.deadline) {
			continue
		}
		co.ingestSegmentLocked(l, l.gen, false)
		if c.failedErr != nil {
			return
		}
		co.requeueLocked(l)
	}
}

// requeueLocked returns an active lease to the queue — expired, failed
// or completed with an unusable segment; its next grant counts as
// stolen work.  Called with co.mu held.
func (co *Coordinator) requeueLocked(l *lease) {
	c := co.c
	if w := c.workers[l.worker]; w != nil && w.lease == l.idx {
		w.lease = -1
	}
	l.state = leasePending
	l.expired = true
	c.queue = append(c.queue, l.idx)
	co.met.expired.Inc()
	co.met.active.Add(-1)
}

// ingestSegmentLocked parses one generation's segment bytes and merges
// its experiments into the campaign results.  strict rejects entries
// outside the lease and a short parse (lease completion); the
// opportunistic expiry path tolerates both.  Called with co.mu held.
func (co *Coordinator) ingestSegmentLocked(l *lease, gen int, strict bool) error {
	c := co.c
	seg := l.segs[gen]
	if seg == nil || len(seg.data) == 0 {
		if strict {
			return fmt.Errorf("lease %d gen %d: no segment uploaded", l.idx, gen)
		}
		return nil
	}
	h, exps, _, err := report.ParseSegment(seg.data)
	if err != nil {
		if strict {
			return fmt.Errorf("lease %d gen %d: %v", l.idx, gen, err)
		}
		return nil
	}
	if !h.SameCampaign(c.header) {
		err := fmt.Errorf("lease %d gen %d: segment header describes a different campaign (app %s seed %d n %d)",
			l.idx, gen, h.App, h.Seed, h.Injections)
		if strict {
			return err
		}
		co.failLocked(err)
		return err
	}
	for id, e := range exps {
		if !l.ids[id] {
			if strict {
				return fmt.Errorf("lease %d gen %d: experiment %s outside the lease", l.idx, gen, id)
			}
			continue
		}
		if prev, dup := c.results[id]; dup {
			if !report.SameOutcome(prev, e) {
				err := fmt.Errorf("experiment %s disagrees between workers (%s vs %s) — campaign is not deterministic",
					id, prev.Outcome, e.Outcome)
				co.failLocked(err)
				return err
			}
			c.duplicates++
			co.met.duplicates.Inc()
			continue
		}
		c.results[id] = e
		if e.Unapplied() {
			c.unclassified++
		}
		co.met.results.Inc()
		if l.worker != "" {
			co.met.worker(l.worker).Inc()
			if w := c.workers[l.worker]; w != nil {
				w.results++
			}
		}
	}
	return nil
}

// failLocked marks the campaign failed.  Called with co.mu held.
func (co *Coordinator) failLocked(err error) {
	c := co.c
	if c == nil || c.failedErr != nil {
		return
	}
	c.failedErr = err
	close(c.done)
}

// finishLeaseLocked marks a lease done and, when it was the last one
// cut, crosses the barrier: an adaptive campaign asks the frontier what
// the results still lack and cuts it into the next round's leases; when
// nothing is missing, report.Assemble accepts the result set and the
// final CSV is rendered.  Called with co.mu held.
func (co *Coordinator) finishLeaseLocked(l *lease) {
	c := co.c
	l.state = leaseDone
	c.doneLeases++
	co.met.completed.Inc()
	co.met.active.Add(-1)
	if w := c.workers[l.worker]; w != nil && w.lease == l.idx {
		w.lease = -1
	}
	if c.doneLeases < len(c.leases) {
		return
	}
	if c.spec.Adaptive {
		_, missing, _, err := c.contract.Frontier(core.RecordedIn(c.results))
		if err != nil {
			co.failLocked(err)
			return
		}
		if len(missing) > 0 {
			before := len(c.leases)
			c.cutLeases(missing)
			co.met.leases.Add(uint64(len(c.leases) - before))
			co.met.planned.Add(uint64(len(missing)))
			return
		}
	}
	res, err := report.Assemble(c.header, c.results)
	if err != nil {
		co.failLocked(err)
		return
	}
	c.unclassified = res.Unclassified
	var buf bytes.Buffer
	report.WriteCampaignCSV(&buf, c.spec.App, res)
	c.csv = buf.Bytes()
	close(c.done)
}

// leaseGrant is the acquire response: the lease's entries plus the full
// campaign spec, so a bare `faultcampaign -worker <url>` needs no other
// configuration.
type leaseGrant struct {
	Lease int `json:"lease"`
	Gen   int `json:"gen"`
	// Start/End are informational — the worker runs Entries: where the
	// lease's entries sit in the list they were cut from, which for a
	// fixed-n campaign is the plan range [Start, End) and for an adaptive
	// one just a position within the round.
	Start int   `json:"start"`
	End   int   `json:"end"`
	TTLMs int64 `json:"ttl_ms"`
	Ranks int   `json:"ranks"`
	Spec  Spec  `json:"spec"`
	// Entries is the plan-entry ID list the lease runs, in order.
	Entries []string `json:"entries"`
}

// WorkerStatus is one row of the cluster view.
type WorkerStatus struct {
	Name       string `json:"name"`
	Lease      int    `json:"lease"` // -1 when idle
	Results    int    `json:"results"`
	LastSeenMs int64  `json:"last_seen_ms"`
}

// ClusterStatus is the /status JSON document.
type ClusterStatus struct {
	State         string         `json:"state"` // waiting, running, complete, failed
	App           string         `json:"app,omitempty"`
	Seed          uint64         `json:"seed,omitempty"`
	Injections    int            `json:"injections,omitempty"`
	PlanTotal     int            `json:"plan_total,omitempty"`
	Results       int            `json:"results_ingested"`
	Duplicates    int            `json:"duplicate_results"`
	LeasesTotal   int            `json:"leases_total"`
	LeasesPending int            `json:"leases_pending"`
	LeasesActive  int            `json:"leases_active"`
	LeasesDone    int            `json:"leases_done"`
	LeasesStolen  int            `json:"leases_stolen"`
	Workers       []WorkerStatus `json:"workers,omitempty"`
	RatePerSec    float64        `json:"rate_per_sec"`
	ETASeconds    float64        `json:"eta_seconds"`
	Error         string         `json:"error,omitempty"`
	// Adaptive campaigns: the round being run (the last one, once
	// complete) and the per-stratum CI half-width summary as of the last
	// barrier (core.AdaptiveStats.StatusSuffix format).  PlanTotal then
	// counts the entries cut so far, which grows round by round.
	Round    int    `json:"round,omitempty"`
	Adaptive string `json:"adaptive,omitempty"`
}

// Status returns the live cluster view.
func (co *Coordinator) Status() ClusterStatus {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	c := co.c
	if c == nil {
		return ClusterStatus{State: "waiting"}
	}
	s := ClusterStatus{
		State:       "running",
		App:         c.spec.App,
		Seed:        c.spec.Seed,
		Injections:  c.spec.Injections,
		PlanTotal:   c.planned,
		Results:     len(c.results),
		Duplicates:  c.duplicates,
		LeasesTotal: len(c.leases),
		LeasesDone:  c.doneLeases,
	}
	if c.spec.Adaptive {
		if _, missing, stats, err := c.contract.Frontier(core.RecordedIn(c.results)); err == nil {
			s.Round = stats.Rounds
			if len(missing) > 0 {
				s.Round++
			}
			s.Adaptive = stats.StatusSuffix()
		}
	}
	for _, l := range c.leases {
		switch l.state {
		case leasePending:
			s.LeasesPending++
		case leaseActive:
			s.LeasesActive++
		}
		s.LeasesStolen += l.stolen
	}
	now := co.now()
	for name, w := range c.workers {
		s.Workers = append(s.Workers, WorkerStatus{
			Name: name, Lease: w.lease, Results: w.results,
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
		})
	}
	sortWorkers(s.Workers)
	if elapsed := now.Sub(c.started).Seconds(); elapsed > 0 && s.Results > 0 {
		s.RatePerSec = float64(s.Results) / elapsed
		if s.PlanTotal > s.Results {
			s.ETASeconds = float64(s.PlanTotal-s.Results) / s.RatePerSec
		}
	}
	switch {
	case c.failedErr != nil:
		s.State = "failed"
		s.Error = c.failedErr.Error()
	case c.csv != nil:
		s.State = "complete"
	}
	return s
}

func sortWorkers(ws []WorkerStatus) {
	for i := 1; i < len(ws); i++ {
		for j := i; j > 0 && ws[j].Name < ws[j-1].Name; j-- {
			ws[j], ws[j-1] = ws[j-1], ws[j]
		}
	}
}

// touchWorkerLocked records worker liveness.  Called with co.mu held.
func (co *Coordinator) touchWorkerLocked(name string) *workerState {
	c := co.c
	w := c.workers[name]
	if w == nil {
		w = &workerState{lease: -1}
		c.workers[name] = w
		co.met.workers.Set(int64(len(c.workers)))
	}
	w.lastSeen = co.now()
	return w
}

// Acquire grants the next pending lease to worker, sweeping expired
// leases first.  The bool is false when no lease is currently available
// (the worker should poll again: leases may return via expiry).  The
// error is non-nil once the campaign is complete or failed — workers
// exit on it.
func (co *Coordinator) Acquire(worker string) (leaseGrant, bool, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.c
	if c == nil {
		return leaseGrant{}, false, nil
	}
	co.sweepLocked()
	if c.failedErr != nil {
		return leaseGrant{}, false, fmt.Errorf("campaign failed: %v", c.failedErr)
	}
	if c.csv != nil {
		return leaseGrant{}, false, errCampaignDone
	}
	co.touchWorkerLocked(worker)
	if len(c.queue) == 0 {
		return leaseGrant{}, false, nil
	}
	idx := c.queue[0]
	c.queue = c.queue[1:]
	l := c.leases[idx]
	l.gen++
	l.state = leaseActive
	l.worker = worker
	l.deadline = co.now().Add(c.ttl)
	l.segs[l.gen] = &segment{}
	if co.cfg.Dir != "" {
		l.segs[l.gen].path = filepath.Join(co.cfg.Dir, fmt.Sprintf("lease-%04d.gen%d.jsonl", l.idx, l.gen))
	}
	if l.expired {
		l.expired = false
		l.stolen++
		co.met.stolen.Inc()
	}
	c.workers[worker].lease = idx
	co.met.granted.Inc()
	co.met.active.Add(1)
	grant := leaseGrant{
		Lease: l.idx, Gen: l.gen, Start: l.start, End: l.start + len(l.entries),
		TTLMs: c.ttl.Milliseconds(), Ranks: c.ranks, Spec: c.spec,
		Entries: make([]string, len(l.entries)),
	}
	for i, pe := range l.entries {
		grant.Entries[i] = pe.ID()
	}
	return grant, true, nil
}

var errCampaignDone = fmt.Errorf("campaign complete")

// checkLeaseLocked resolves (lease, gen, worker) to a live lease the
// caller still owns.  Called with co.mu held.
func (co *Coordinator) checkLeaseLocked(idx, gen int, worker string) (*lease, error) {
	c := co.c
	if c == nil {
		return nil, fmt.Errorf("no campaign loaded")
	}
	if idx < 0 || idx >= len(c.leases) {
		return nil, fmt.Errorf("unknown lease %d", idx)
	}
	l := c.leases[idx]
	if l.state != leaseActive || l.gen != gen || l.worker != worker {
		return nil, fmt.Errorf("lease %d gen %d no longer held by %s", idx, gen, worker)
	}
	return l, nil
}

// Renew extends the lease deadline (the worker heartbeat).  An error
// means the lease was lost — the worker should stop working on it.
func (co *Coordinator) Renew(idx, gen int, worker string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return err
	}
	co.touchWorkerLocked(worker)
	l.deadline = co.now().Add(co.c.ttl)
	return nil
}

// Fail returns a lease to the queue on an explicit worker error.  Too
// many failures of one lease fail the whole campaign: the lease is
// deterministically unrunnable, and retrying forever would hide it.
func (co *Coordinator) Fail(idx, gen int, worker, cause string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return err
	}
	co.touchWorkerLocked(worker)
	l.failures++
	if l.failures >= co.cfg.MaxLeaseFailures {
		co.failLocked(fmt.Errorf("lease %d failed %d times (last: %s)", idx, l.failures, cause))
		return nil
	}
	co.requeueLocked(l)
	return nil
}

// SegmentOffset returns how many bytes of (lease, gen)'s segment the
// coordinator holds — the resume point for an interrupted upload.
func (co *Coordinator) SegmentOffset(idx, gen int) (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	c := co.c
	if c == nil || idx < 0 || idx >= len(c.leases) {
		return 0, fmt.Errorf("unknown lease %d", idx)
	}
	seg := c.leases[idx].segs[gen]
	if seg == nil {
		return 0, fmt.Errorf("lease %d has no generation %d", idx, gen)
	}
	return len(seg.data), nil
}

// AppendSegment appends chunk at byte offset to (lease, gen)'s segment.
// A mismatched offset returns the current one without appending, so the
// worker re-synchronizes and resends — at-least-once chunk delivery
// composes to exactly-once bytes.
func (co *Coordinator) AppendSegment(idx, gen int, worker string, offset int, chunk []byte) (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return 0, err
	}
	co.touchWorkerLocked(worker)
	seg := l.segs[gen]
	if offset != len(seg.data) {
		return len(seg.data), errOffsetMismatch
	}
	seg.data = append(seg.data, chunk...)
	co.met.segmentBytes.Add(uint64(len(chunk)))
	if seg.path != "" {
		f, err := os.OpenFile(seg.path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return 0, err
		}
		_, werr := f.Write(chunk)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return 0, werr
		}
	}
	return len(seg.data), nil
}

var errOffsetMismatch = fmt.Errorf("segment offset mismatch")

// Complete finishes a lease: the uploaded segment must parse cleanly
// and carry a result for every entry of the lease.  An incomplete or
// malformed segment returns the lease to the queue.
func (co *Coordinator) Complete(idx, gen int, worker string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return err
	}
	co.touchWorkerLocked(worker)
	if err := co.ingestSegmentLocked(l, gen, true); err != nil {
		if co.c.failedErr != nil {
			return err
		}
		// Re-queue: the segment was unusable but the campaign survives.
		co.requeueLocked(l)
		return err
	}
	if co.c.failedErr != nil {
		return co.c.failedErr
	}
	for _, pe := range l.entries {
		if _, ok := co.c.results[pe.ID()]; !ok {
			co.requeueLocked(l)
			return fmt.Errorf("lease %d gen %d: segment missing entry %s", idx, gen, pe.ID())
		}
	}
	co.finishLeaseLocked(l)
	return nil
}

// ---- HTTP surface ----

// Handler returns the coordinator's HTTP mux:
//
//	POST /api/campaign        submit a Spec (400 naming an unknown field, 409 when one is loaded)
//	GET  /api/campaign        the loaded Spec
//	POST /api/lease/acquire   {"worker":W} -> leaseGrant | 204 retry | 410 done
//	POST /api/lease/renew     {"worker":W,"lease":L,"gen":G} -> 204 | 409 lost
//	POST /api/lease/fail      {"worker":W,"lease":L,"gen":G,"error":E}
//	GET  /api/segment?lease=L&gen=G            -> {"offset":N}
//	POST /api/segment?lease=L&gen=G&worker=W&offset=N  (raw chunk body)
//	POST /api/lease/complete  {"worker":W,"lease":L,"gen":G}
//	GET  /status              ClusterStatus JSON
//	GET  /result.csv          final CSV (409 until complete)
//	GET  /metrics[.json]      the telemetry registry
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	metricsHandler := telemetry.Handler(co.cfg.Metrics)
	mux.Handle("/metrics", metricsHandler)
	mux.Handle("/metrics.json", metricsHandler)

	mux.HandleFunc("/api/campaign", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			co.mu.Lock()
			c := co.c
			co.mu.Unlock()
			if c == nil {
				http.Error(w, "no campaign loaded", http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, c.spec)
		case http.MethodPost:
			// A field this version does not know (a misspelling, or an
			// option it no longer runs) would otherwise be dropped and a
			// different campaign run: refuse it by name.
			var spec Spec
			dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&spec); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			if err := co.Submit(spec); err != nil {
				http.Error(w, err.Error(), http.StatusConflict)
				return
			}
			w.WriteHeader(http.StatusCreated)
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})

	type leaseReq struct {
		Worker string `json:"worker"`
		Lease  int    `json:"lease"`
		Gen    int    `json:"gen"`
		Error  string `json:"error,omitempty"`
	}
	readReq := func(w http.ResponseWriter, r *http.Request) (leaseReq, bool) {
		var req leaseReq
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return req, false
		}
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return req, false
		}
		if req.Worker == "" {
			http.Error(w, "missing worker name", http.StatusBadRequest)
			return req, false
		}
		return req, true
	}

	mux.HandleFunc("/api/lease/acquire", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readReq(w, r)
		if !ok {
			return
		}
		grant, ok, err := co.Acquire(req.Worker)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusGone)
		case !ok:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, grant)
		}
	})
	mux.HandleFunc("/api/lease/renew", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readReq(w, r)
		if !ok {
			return
		}
		if err := co.Renew(req.Lease, req.Gen, req.Worker); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/api/lease/fail", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readReq(w, r)
		if !ok {
			return
		}
		if err := co.Fail(req.Lease, req.Gen, req.Worker, req.Error); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/api/lease/complete", func(w http.ResponseWriter, r *http.Request) {
		req, ok := readReq(w, r)
		if !ok {
			return
		}
		if err := co.Complete(req.Lease, req.Gen, req.Worker); err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	mux.HandleFunc("/api/segment", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		idx, err1 := strconv.Atoi(q.Get("lease"))
		gen, err2 := strconv.Atoi(q.Get("gen"))
		if err1 != nil || err2 != nil {
			http.Error(w, "lease and gen query parameters required", http.StatusBadRequest)
			return
		}
		switch r.Method {
		case http.MethodGet:
			off, err := co.SegmentOffset(idx, gen)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			writeJSON(w, http.StatusOK, map[string]int{"offset": off})
		case http.MethodPost:
			offset, err := strconv.Atoi(q.Get("offset"))
			if err != nil {
				http.Error(w, "offset query parameter required", http.StatusBadRequest)
				return
			}
			chunk, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
			if err != nil {
				// The chunk died mid-flight; nothing was appended.  The
				// worker re-syncs via GET and resends.
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			off, err := co.AppendSegment(idx, gen, q.Get("worker"), offset, chunk)
			switch {
			case err == errOffsetMismatch:
				writeJSON(w, http.StatusConflict, map[string]int{"offset": off})
			case err != nil:
				http.Error(w, err.Error(), http.StatusConflict)
			default:
				writeJSON(w, http.StatusOK, map[string]int{"offset": off})
			}
		default:
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		}
	})

	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, co.Status())
	})
	mux.HandleFunc("/result.csv", func(w http.ResponseWriter, r *http.Request) {
		csv, _, err := co.ResultCSV()
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.Header().Set("Content-Type", "text/csv; charset=utf-8")
		w.Write(csv)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "mpifault campaign coordinator\n/status        cluster view (JSON)\n/result.csv    final campaign CSV\n/metrics       Prometheus text\n/metrics.json  JSON snapshot\n/api/...       worker protocol (see internal/coord)\n")
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
