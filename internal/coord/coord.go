// Package coord is the campaign control plane: a long-running
// coordinator that accepts a campaign spec, splits the core.Plan into
// bounded leases, hands them to pull-based workers over HTTP, ingests
// the JSONL journal segment a worker uploads for each lease it
// completes, and serves a live cluster view — the FINJ-style
// "orchestrator plus injection engines" architecture for running
// millions of experiments across machines.
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
//     renewals, failures and completions.
//   - A lease's results arrive once: when its entries have run, the
//     worker completes the lease with one request whose body is the
//     lease's JSONL journal segment (the exact bytes a single-process
//     campaign journal holds for those entries).  Completion ingests the
//     segment only if it covers every entry of the lease; a stolen lease
//     is re-granted whole, so whatever its dead owner ran is simply run
//     again and nothing of an expired generation is ever ingested.
//   - An experiment therefore reaches the results once.  One arriving a
//     second time means the protocol broke, and fails the campaign.
//
// The campaign is built once and every run derives from its header:
// Submit builds its report.JournalHeader with report.NewCampaign, the
// constructor faultcampaign builds its campaigns with, and every lease
// grant carries it; a worker writes it verbatim as its segment header and
// runs the core.Config it defines (JournalHeader.Config) — the header's
// app at its ranks and scale — with the lease's entries.  Beyond that
// header the coordinator holds only the results it has ingested.  At
// each barrier (every lease cut so far completed) it asks the header's
// core.Contract what those results still lack (Frontier) and cuts it
// into leases: a fixed-n campaign is the one-round frontier (the whole
// plan once, then nothing), an adaptive one a planner round — the
// question a single-process core.Run asks between rounds, so the two
// run the same rounds.  When nothing is missing, the contract's Assemble
// — the check faultmerge runs — accepts the result set and the final
// tables are rendered exactly as a single-process campaign would: the
// /result.csv bytes are identical to `faultcampaign -csv -quiet` at the
// same spec — the determinism gate's cluster twin.
package coord

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpifault/internal/core"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

// Spec is a campaign submission: what to run and how to slice it.  It
// deliberately mirrors the faultcampaign flags, and Submit defines the
// campaign with the constructor faultcampaign uses (report.NewCampaign),
// so the coordinator's final CSV is byte-comparable to a single-process
// run of the same parameters.  Its campaigns run at the app's default
// ranks and scale.
type Spec struct {
	App        string
	Injections int
	Seed       uint64
	Regions    []string // short names; empty = all eight
	// TraceDiff makes every worker localize Incorrect/Hang/Crash outcomes
	// against its golden run's tapes (faultcampaign -trace-diff).  The
	// tapes are a pure function of (app, seed, ranks), so every worker
	// computes the identical digest — the e2e gate compares the hashes
	// they log.
	TraceDiff bool
	// Adaptive switches the campaign to the sequential-stopping planner
	// (faultcampaign -adaptive): instead of pre-splitting the fixed plan,
	// leases are cut round by round from core.Contract.Frontier over the
	// results ingested so far.  Each round is a barrier — its
	// leases must all complete before the frontier is asked again — and
	// the coordinator keeps no planner between barriers: what runs next
	// is a pure function of (contract, recorded outcomes), and every
	// outcome a pure function of (seed, region, index), so the final CSV
	// is byte-identical to a single-process adaptive run of the same
	// spec, whatever the worker count.  The campaign stops each region
	// once its Wilson CI half-width reaches TargetHalfWidth.  Injections
	// must be zero on submission; Submit sizes it to the fixed-n cap and
	// seeds the pilot round with the app's static AVF priors.
	Adaptive bool
	// Confidence, TargetHalfWidth and RoundSize pin the estimation
	// contract; zero values take the core defaults (95 %, 4.9 %,
	// sampling.DefaultRoundSize), and a fixed-n campaign leaves them zero.
	Confidence      float64
	TargetHalfWidth float64
	RoundSize       int
	// LeaseSize bounds how many plan entries one lease carries; small
	// leases steal cheaply, large leases amortize the worker's golden
	// run.  0 means DefaultLeaseSize.
	LeaseSize int
	// LeaseTTLMillis is the lease deadline: a worker that has not
	// renewed within this long forfeits the lease.  0 means
	// DefaultLeaseTTL.
	LeaseTTLMillis int64
}

// Defaults for unset Spec fields.
const (
	DefaultLeaseSize = 32
	DefaultLeaseTTL  = 15 * time.Second
)

// maxLeaseFailures bounds how often one lease may be explicitly failed by
// workers before the campaign is declared failed (a deterministically
// failing lease would otherwise retry forever).
const maxLeaseFailures = 8

// Config parameterizes a Coordinator.
type Config struct {
	// Metrics receives the cluster telemetry (lease state, ingestion
	// counters, per-worker throughput).  Nil records nothing.
	Metrics *telemetry.Registry
	// Dir, when non-empty, spools every accepted segment to
	// <Dir>/lease-NNNN.genG.jsonl, written once when its lease completes
	// — each file a campaign journal of one lease, together exactly the
	// ingested results, so `faultmerge -coord <Dir>` reconstructs the
	// campaign from the coordinator's own layout.
	Dir string
	// Now is the clock; nil means time.Now.  Injectable for tests.
	Now func() time.Time
}

type leaseState int

const (
	leasePending leaseState = iota
	leaseActive
	leaseDone
)

// lease is one bounded list of plan entries, cut from a frontier: the
// whole plan of a fixed-n campaign, or one adaptive round.
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
	seg      []byte // the current generation's upload, reset at every grant
}

type workerState struct {
	lease    int // -1 when idle
	results  int
	lastSeen time.Time
}

// campaign is the coordinator's single active campaign.
type campaign struct {
	header    report.JournalHeader // the campaign definition every grant carries
	contract  core.Contract        // header.Contract(): its frontier and assembler
	traceDiff bool
	leaseSize int
	ttl       time.Duration

	leases  []*lease
	queue   []int // pending lease indices, FIFO
	results map[string]core.Experiment
	workers map[string]*workerState

	planned int // total entries cut into leases so far (grows by the round when adaptive)
	// round and adaptive are what Status reports of an adaptive campaign,
	// as of the last barrier (results change only when a lease completes).
	round    int
	adaptive string

	doneLeases   int
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

// New returns an idle coordinator; load its campaign with Submit.
func New(cfg Config) *Coordinator {
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Coordinator{cfg: cfg, met: newCoordMeters(cfg.Metrics)}
}

// coordMeters pre-resolves the cluster metrics (nil-safe registry).
type coordMeters struct {
	reg          *telemetry.Registry
	leases       *telemetry.Counter
	granted      *telemetry.Counter
	completed    *telemetry.Counter
	expired      *telemetry.Counter
	stolen       *telemetry.Counter
	active       *telemetry.Gauge
	results      *telemetry.Counter
	segmentBytes *telemetry.Counter
	workers      *telemetry.Gauge
	planned      *telemetry.Counter
	perWorker    map[string]*telemetry.Counter // read and written with Coordinator.mu held
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
		segmentBytes: reg.Counter(telemetry.MetricCoordSegmentBytes),
		workers:      reg.Gauge(telemetry.MetricCoordWorkers),
		planned:      reg.Counter(telemetry.MetricCoordPlanTotal),
		perWorker:    map[string]*telemetry.Counter{},
	}
}

func (m *coordMeters) worker(name string) *telemetry.Counter {
	c := m.perWorker[name]
	if c == nil {
		c = m.reg.Counter(telemetry.WorkerMetric(name))
		m.perWorker[name] = c
	}
	return c
}

// Submit installs the campaign.  A coordinator runs exactly one
// campaign; a second submission is rejected.
func (co *Coordinator) Submit(spec Spec) error {
	header, _, err := report.NewCampaign(report.JournalHeader{
		App: spec.App, Seed: spec.Seed, Injections: spec.Injections, Regions: spec.Regions,
		Adaptive: spec.Adaptive, Target: spec.TargetHalfWidth, Confidence: spec.Confidence, RoundSize: spec.RoundSize,
	})
	if err != nil {
		return err
	}
	if spec.LeaseSize <= 0 {
		spec.LeaseSize = DefaultLeaseSize
	}
	ttl := DefaultLeaseTTL
	if spec.LeaseTTLMillis > 0 {
		ttl = time.Duration(spec.LeaseTTLMillis) * time.Millisecond
	}
	contract, err := header.Contract()
	if err != nil {
		return err
	}
	c := &campaign{
		header:    header,
		contract:  contract,
		traceDiff: spec.TraceDiff,
		leaseSize: spec.LeaseSize,
		ttl:       ttl,
		results:   map[string]core.Experiment{},
		workers:   map[string]*workerState{},
		done:      make(chan struct{}),
		started:   co.cfg.Now(),
	}
	// Cut the first frontier: the whole plan, or the adaptive pilot
	// round (later rounds are cut at the barrier in finishLeaseLocked).
	if _, err := c.cutFrontier(); err != nil {
		return err
	}

	co.mu.Lock()
	defer co.mu.Unlock()
	if co.c != nil {
		return fmt.Errorf("coord: a campaign is already loaded (app %s seed %d)", co.c.header.App, co.c.header.Seed)
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

// cutFrontier asks the contract what the results still lack — the whole
// plan, one adaptive round, or nothing — and queues it as leases of at
// most leaseSize entries each, in order: the order a single-process
// campaign executes them.  It returns how many entries it cut, and
// records the round it starts for Status.
func (c *campaign) cutFrontier() (int, error) {
	_, entries, stats, err := c.contract.Frontier(c.results)
	if err != nil {
		return 0, err
	}
	if stats != nil {
		c.round = stats.Rounds
		if len(entries) > 0 {
			c.round++
		}
		c.adaptive = stats.StatusSuffix()
	}
	c.planned += len(entries)
	for start := 0; start < len(entries); start += c.leaseSize {
		end := start + c.leaseSize
		if end > len(entries) {
			end = len(entries)
		}
		l := &lease{idx: len(c.leases), start: start, entries: entries[start:end],
			ids: make(map[string]bool, end-start)}
		for _, pe := range l.entries {
			l.ids[pe.ID()] = true
		}
		c.leases = append(c.leases, l)
		c.queue = append(c.queue, l.idx)
	}
	return len(entries), nil
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
// the queue.  Whatever its owner uploaded is dropped with it: the next
// grant runs the whole lease again.  Called with co.mu held.
func (co *Coordinator) sweepLocked() {
	c := co.c
	if c == nil || c.failedErr != nil {
		return
	}
	now := co.now()
	for _, l := range c.leases {
		if l.state == leaseActive && !now.Before(l.deadline) {
			co.requeueLocked(l)
		}
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

// ingestSegmentLocked accepts the segment a lease's current generation
// uploaded: it must parse, describe this campaign and carry exactly the
// lease's entries, or the error it returns sends the lease back to the
// queue.  Only an accepted segment is spooled (Config.Dir) and merged into
// the results.  An experiment already in the results fails the campaign:
// a lease completes once and frontiers are disjoint, so one arriving twice
// means the protocol broke.  Called with co.mu held.
func (co *Coordinator) ingestSegmentLocked(l *lease) error {
	c := co.c
	h, exps, _, err := report.ParseSegment(l.seg)
	if err != nil {
		return fmt.Errorf("lease %d gen %d: %v", l.idx, l.gen, err)
	}
	if !h.SameCampaign(c.header) {
		return fmt.Errorf("lease %d gen %d: segment header describes a different campaign (app %s seed %d n %d)",
			l.idx, l.gen, h.App, h.Seed, h.Injections)
	}
	for id := range exps {
		if !l.ids[id] {
			return fmt.Errorf("lease %d gen %d: experiment %s outside the lease", l.idx, l.gen, id)
		}
		if _, dup := c.results[id]; dup {
			err := fmt.Errorf("lease %d gen %d: experiment %s was already ingested", l.idx, l.gen, id)
			co.failLocked(err)
			return err
		}
	}
	for _, pe := range l.entries {
		if _, ok := exps[pe.ID()]; !ok {
			return fmt.Errorf("lease %d gen %d: segment missing entry %s", l.idx, l.gen, pe.ID())
		}
	}
	if co.cfg.Dir != "" {
		path := filepath.Join(co.cfg.Dir, fmt.Sprintf("lease-%04d.gen%d.jsonl", l.idx, l.gen))
		if err := os.WriteFile(path, l.seg, 0o644); err != nil {
			co.failLocked(err)
			return err
		}
	}
	for id, e := range exps {
		c.results[id] = e
	}
	co.met.results.Add(uint64(len(exps)))
	co.met.worker(l.worker).Add(uint64(len(exps)))
	if w := c.workers[l.worker]; w != nil {
		w.results += len(exps)
	}
	l.seg = nil
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
// cut, crosses the barrier: it asks the contract's Frontier what the
// results still lack and cuts it into the next round's leases (a fixed-n
// campaign finds nothing missing); when nothing is missing, the
// contract's Assemble accepts the result set and the final CSV is
// rendered.
// Called with co.mu held.
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
	before := len(c.leases)
	n, err := c.cutFrontier()
	if err != nil {
		co.failLocked(err)
		return
	}
	if n > 0 {
		co.met.leases.Add(uint64(len(c.leases) - before))
		co.met.planned.Add(uint64(n))
		return
	}
	res, err := c.contract.Assemble(c.results)
	if err != nil {
		co.failLocked(err)
		return
	}
	c.unclassified = res.Unclassified
	var buf bytes.Buffer
	report.WriteCampaignCSV(&buf, c.header.App, res)
	c.csv = buf.Bytes()
	close(c.done)
}

// leaseGrant is the acquire response: the lease's entries plus the
// campaign's journal header — its whole definition — so a bare
// `faultcampaign -worker <url>` needs no other configuration.
type leaseGrant struct {
	Lease int `json:"lease"`
	Gen   int `json:"gen"`
	// Start/End are informational — the worker runs Entries: where the
	// lease's entries sit in the list they were cut from, which for a
	// fixed-n campaign is the plan range [Start, End) and for an adaptive
	// one just a position within the round.
	Start  int                  `json:"start"`
	End    int                  `json:"end"`
	TTLMs  int64                `json:"ttl_ms"`
	Header report.JournalHeader `json:"header"`
	// TraceDiff is the one worker option outside the campaign identity
	// (it only observes): Spec.TraceDiff.
	TraceDiff bool `json:"trace_diff,omitempty"`
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
		App:         c.header.App,
		Seed:        c.header.Seed,
		Injections:  c.header.Injections,
		PlanTotal:   c.planned,
		Results:     len(c.results),
		LeasesTotal: len(c.leases),
		LeasesDone:  c.doneLeases,
		Round:       c.round,
		Adaptive:    c.adaptive,
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
	slices.SortFunc(s.Workers, func(a, b WorkerStatus) int { return strings.Compare(a.Name, b.Name) })
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

// String renders the status as the one line faultcoord -status prints:
//
//	leases 5/8 done (2 active, 1 stolen) | 23/32 results | 3 workers | 12.3/s | ETA 1s
func (s ClusterStatus) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "leases %d/%d done (%d active", s.LeasesDone, s.LeasesTotal, s.LeasesActive)
	if s.LeasesStolen > 0 {
		fmt.Fprintf(&b, ", %d stolen", s.LeasesStolen)
	}
	fmt.Fprintf(&b, ") | %d/%d results", s.Results, s.PlanTotal)
	if len(s.Workers) > 0 {
		fmt.Fprintf(&b, " | %d workers", len(s.Workers))
	}
	if s.RatePerSec > 0 {
		fmt.Fprintf(&b, " | %.1f/s", s.RatePerSec)
		if s.ETASeconds > 0 {
			fmt.Fprintf(&b, " | ETA %s", time.Duration(s.ETASeconds*float64(time.Second)).Round(time.Second))
		}
	}
	return b.String()
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
	l.seg = nil
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
		TTLMs: c.ttl.Milliseconds(), Header: c.header, TraceDiff: c.traceDiff,
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
	if l.failures >= maxLeaseFailures {
		co.failLocked(fmt.Errorf("lease %d failed %d times (last: %s)", idx, l.failures, cause))
		return nil
	}
	co.requeueLocked(l)
	return nil
}

// AppendSegment appends chunk at byte offset to (lease, gen)'s segment,
// which Complete then ingests; the completion request appends its whole
// body at offset 0.  A mismatched offset returns the current one without
// appending.
func (co *Coordinator) AppendSegment(idx, gen int, worker string, offset int, chunk []byte) (int, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return 0, err
	}
	co.touchWorkerLocked(worker)
	if offset != len(l.seg) {
		return len(l.seg), errOffsetMismatch
	}
	l.seg = append(l.seg, chunk...)
	co.met.segmentBytes.Add(uint64(len(chunk)))
	return len(l.seg), nil
}

var errOffsetMismatch = fmt.Errorf("segment offset mismatch")

// Complete finishes a lease: the uploaded segment must parse cleanly
// and carry a result for every entry of the lease (ingestSegmentLocked).
// An incomplete or malformed segment returns the lease to the queue.
func (co *Coordinator) Complete(idx, gen int, worker string) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	co.sweepLocked()
	l, err := co.checkLeaseLocked(idx, gen, worker)
	if err != nil {
		return err
	}
	co.touchWorkerLocked(worker)
	if err := co.ingestSegmentLocked(l); err != nil {
		if co.c.failedErr == nil {
			// Re-queue: the segment was unusable but the campaign survives.
			co.requeueLocked(l)
		}
		return err
	}
	co.finishLeaseLocked(l)
	return nil
}

// ---- HTTP surface ----

// Handler returns the coordinator's HTTP mux.  Every lease request is a
// POST naming its worker, lease and generation in the query (acquire
// names only the worker); a 409 answers one whose (lease, gen) the worker
// no longer holds:
//
//	POST /api/lease/acquire?worker=W            -> leaseGrant (entries + journal header) | 204 retry | 410 done
//	POST /api/lease/renew?worker=W&lease=L&gen=G    -> 204 | 409 lost
//	POST /api/lease/fail?worker=W&lease=L&gen=G     body: the error text -> 204 | 409 lost
//	POST /api/lease/complete?worker=W&lease=L&gen=G body: the whole segment -> 204 | 409 lost or refused
//	GET  /status              ClusterStatus JSON
//	GET  /result.csv          final CSV (409 until complete)
//	GET  /metrics[.json]      the telemetry registry
//
// Completion is AppendSegment at offset 0 and Complete, the calls an
// in-process caller makes.  A completion whose response was lost is
// answered 409 when retried, as the lease is done (or, if its segment was
// refused, re-queued whole), so nothing is ingested twice.
func (co *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	metricsHandler := telemetry.Handler(co.cfg.Metrics)
	mux.Handle("/metrics", metricsHandler)
	mux.Handle("/metrics.json", metricsHandler)

	handleLease := func(path string, serve func(w http.ResponseWriter, worker string, idx, gen int, body []byte)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			q := r.URL.Query()
			idx, err1 := strconv.Atoi(q.Get("lease"))
			gen, err2 := strconv.Atoi(q.Get("gen"))
			if q.Get("worker") == "" || path != "/api/lease/acquire" && (err1 != nil || err2 != nil) {
				http.Error(w, "worker, lease and gen query parameters required", http.StatusBadRequest)
				return
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
			if err != nil {
				// The request died mid-flight and nothing was recorded, so
				// the worker's retry is accepted.
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			serve(w, q.Get("worker"), idx, gen, body)
		})
	}
	reply := func(w http.ResponseWriter, err error) {
		if err != nil {
			http.Error(w, err.Error(), http.StatusConflict)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	}

	handleLease("/api/lease/acquire", func(w http.ResponseWriter, worker string, _, _ int, _ []byte) {
		grant, ok, err := co.Acquire(worker)
		switch {
		case err != nil:
			http.Error(w, err.Error(), http.StatusGone)
		case !ok:
			w.WriteHeader(http.StatusNoContent)
		default:
			writeJSON(w, http.StatusOK, grant)
		}
	})
	handleLease("/api/lease/renew", func(w http.ResponseWriter, worker string, idx, gen int, _ []byte) {
		reply(w, co.Renew(idx, gen, worker))
	})
	handleLease("/api/lease/fail", func(w http.ResponseWriter, worker string, idx, gen int, body []byte) {
		reply(w, co.Fail(idx, gen, worker, string(body)))
	})
	handleLease("/api/lease/complete", func(w http.ResponseWriter, worker string, idx, gen int, body []byte) {
		_, err := co.AppendSegment(idx, gen, worker, 0, body)
		if err == nil {
			err = co.Complete(idx, gen, worker)
		}
		reply(w, err)
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
