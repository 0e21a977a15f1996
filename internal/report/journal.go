package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"mpifault/internal/classify"
	"mpifault/internal/core"
)

// A campaign journal is an append-only JSONL checkpoint of finished
// experiments: one header line identifying the campaign (app, seed,
// injections, regions, ranks, shard), then one line per completed
// experiment.  Journals make campaigns restartable — a killed run
// resumes by replaying its journal into core.Config.Completed — and
// mergeable: the union of K disjoint shard journals reconstructs the
// single-process campaign exactly, because every experiment's outcome
// is a pure function of (seed, region, index).

// JournalFormat and JournalVersion identify the on-disk format.
const (
	JournalFormat  = "mpifault-campaign-journal"
	JournalVersion = 1
)

// JournalHeader is the first line of a journal: the campaign identity
// plus the shard this journal covers.
type JournalHeader struct {
	Format     string   `json:"format"`
	Version    int      `json:"version"`
	App        string   `json:"app"`
	Seed       uint64   `json:"seed"`
	Injections int      `json:"injections"`
	Regions    []string `json:"regions"` // short names, plan order
	Ranks      int      `json:"ranks"`
	Shard      int      `json:"shard"`
	NumShards  int      `json:"num_shards"`

	// Adaptive campaigns (core.RunAdaptive) pin their whole estimation
	// contract in the header: with the confidence, target half-width,
	// round size and pilot priors recorded, a merge can replay the
	// deterministic planner over the journal's outcomes and verify the
	// recorded per-region counts are exactly where the stopping rule
	// landed.  Injections then holds the per-stratum fixed-n cap.
	// Fixed-n journals omit all four fields, so old journals parse
	// unchanged.
	Adaptive   bool      `json:"adaptive,omitempty"`
	Target     float64   `json:"target_half_width,omitempty"`
	Confidence float64   `json:"confidence,omitempty"`
	RoundSize  int       `json:"round_size,omitempty"`
	Priors     []float64 `json:"priors,omitempty"` // effective pilot priors, plan order
}

// CampaignHeader builds the journal header for one application campaign.
// cfg.Regions may be nil (meaning all regions, as in core.Run);
// cfg.Injections must be positive.
func CampaignHeader(app string, cfg core.Config) JournalHeader {
	regions := cfg.Regions
	if len(regions) == 0 {
		regions = core.Regions()
	}
	short := make([]string, len(regions))
	for i, r := range regions {
		short[i] = r.Short()
	}
	numShards := cfg.NumShards
	if numShards <= 0 {
		numShards = 1
	}
	h := JournalHeader{
		Format:     JournalFormat,
		Version:    JournalVersion,
		App:        app,
		Seed:       cfg.Seed,
		Injections: cfg.Injections,
		Regions:    short,
		Ranks:      cfg.Ranks,
		Shard:      cfg.Shard,
		NumShards:  numShards,
	}
	if cfg.Adaptive {
		h.Adaptive = true
		h.Target = cfg.TargetHalfWidth
		h.Confidence = cfg.Confidence
		h.RoundSize = cfg.RoundSize
		h.Priors = core.EffectivePriors(regions, cfg.AVFPriors)
	}
	return h
}

// SameCampaign reports whether two headers describe shards of the same
// campaign (everything but the shard coordinates must match, including
// the adaptive estimation contract when present).
func (h JournalHeader) SameCampaign(o JournalHeader) bool {
	if h.App != o.App || h.Seed != o.Seed || h.Injections != o.Injections ||
		h.Ranks != o.Ranks || len(h.Regions) != len(o.Regions) {
		return false
	}
	for i := range h.Regions {
		if h.Regions[i] != o.Regions[i] {
			return false
		}
	}
	if h.Adaptive != o.Adaptive || h.Target != o.Target ||
		h.Confidence != o.Confidence || h.RoundSize != o.RoundSize ||
		len(h.Priors) != len(o.Priors) {
		return false
	}
	for i := range h.Priors {
		if h.Priors[i] != o.Priors[i] {
			return false
		}
	}
	return true
}

// PlanRegions parses the header's region list back into core regions.
func (h JournalHeader) PlanRegions() ([]core.Region, error) {
	regions := make([]core.Region, len(h.Regions))
	for i, s := range h.Regions {
		r, err := core.ParseRegion(s)
		if err != nil {
			return nil, fmt.Errorf("report: journal header: %v", err)
		}
		regions[i] = r
	}
	return regions, nil
}

// JournalEntry is one completed experiment, keyed by its plan ID.  The
// forensics field is optional: journals written before the flight
// recorder existed (or with it disabled) simply omit it, and such
// entries deserialize with a nil Forensics — old journals resume and
// merge unchanged.
type JournalEntry struct {
	ID         string          `json:"id"`
	Rank       int             `json:"rank"`
	Trigger    uint64          `json:"trigger"`
	Desc       string          `json:"desc,omitempty"`
	Outcome    string          `json:"outcome"`
	Detail     string          `json:"detail,omitempty"`
	Candidates int             `json:"candidates,omitempty"`
	Forensics  *core.Forensics `json:"forensics,omitempty"`
}

// EntryFromExperiment builds the journal record for one finished
// experiment — the line Journal.Append writes and workers stream to the
// coordinator, one JSON object per line.
func EntryFromExperiment(e core.Experiment) JournalEntry {
	return JournalEntry{
		ID:         e.ID(),
		Rank:       e.Rank,
		Trigger:    e.Trigger,
		Desc:       e.Desc,
		Outcome:    e.Outcome.String(),
		Detail:     e.Detail,
		Candidates: e.Candidates,
		Forensics:  e.Forensics,
	}
}

// Experiment inverts EntryFromExperiment.
func (je JournalEntry) Experiment() (core.Experiment, error) {
	pe, err := core.ParseEntryID(je.ID)
	if err != nil {
		return core.Experiment{}, err
	}
	outcome, err := classify.ParseOutcome(je.Outcome)
	if err != nil {
		return core.Experiment{}, fmt.Errorf("report: journal entry %s: %v", je.ID, err)
	}
	return core.Experiment{
		Region:     pe.Region,
		Index:      pe.Index,
		Rank:       je.Rank,
		Trigger:    je.Trigger,
		Desc:       je.Desc,
		Outcome:    outcome,
		Detail:     je.Detail,
		Candidates: je.Candidates,
		Forensics:  je.Forensics,
	}, nil
}

// Journal is an open, appendable campaign journal.  Append is safe for
// concurrent use, and every entry is flushed to the file before Append
// returns, so a SIGKILL loses at most the entry being written — which
// the truncation-tolerant reader simply re-runs on resume.
type Journal struct {
	mu sync.Mutex
	f  *os.File
}

// CreateJournal starts a fresh journal at path, overwriting any
// existing file, and writes the header line.
func CreateJournal(path string, h JournalHeader) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	line, err := json.Marshal(h)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return nil, err
	}
	return &Journal{f: f}, nil
}

// ResumeJournal opens the journal at path for appending, returning the
// experiments it already records (keyed by ID, for core.Config.Completed).
// A missing file starts a fresh journal; an existing one must describe
// the same campaign and shard as h.  A truncated tail — the footprint of
// a killed campaign — is discarded, so the half-written experiment is
// simply run again.
func ResumeJournal(path string, h JournalHeader) (*Journal, map[string]core.Experiment, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		j, err := CreateJournal(path, h)
		return j, nil, err
	}
	if err != nil {
		return nil, nil, err
	}
	got, completed, valid, err := ParseSegment(data)
	if err != nil {
		return nil, nil, fmt.Errorf("report: resume %s: %v", path, err)
	}
	if !got.SameCampaign(h) || got.Shard != h.Shard || got.NumShards != h.NumShards {
		return nil, nil, fmt.Errorf("report: journal %s records a different campaign (app %s seed %d n %d shard %d/%d); refusing to mix",
			path, got.App, got.Seed, got.Injections, got.Shard, got.NumShards)
	}
	if valid < len(data) {
		if err := os.Truncate(path, int64(valid)); err != nil {
			return nil, nil, err
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return &Journal{f: f}, completed, nil
}

// Append records one finished experiment.
func (j *Journal) Append(e core.Experiment) error {
	line, err := json.Marshal(EntryFromExperiment(e))
	if err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.f.Write(append(line, '\n'))
	return err
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}

// ReadJournal loads a journal's header and completed experiments.
func ReadJournal(path string) (JournalHeader, map[string]core.Experiment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return JournalHeader{}, nil, err
	}
	h, completed, _, err := ParseSegment(data)
	if err != nil {
		return JournalHeader{}, nil, fmt.Errorf("report: %s: %v", path, err)
	}
	return h, completed, nil
}

// ParseSegment scans journal bytes — a header line plus zero or more
// entry lines — returning the header, the experiments keyed by ID, and
// the length of the valid prefix.  Only a line terminated by '\n' that
// unmarshals cleanly counts; the first defective line and everything
// after it are treated as the truncated tail of a killed run
// (valid < len(data)).  A defective header is a hard error — there is
// nothing to resume.  ResumeJournal and the coordinator's ingestion share
// it: an uploaded lease segment is a byte prefix of a worker's journal,
// so a worker killed mid-chunk leaves a segment whose intact lines are
// still usable and whose torn tail is simply re-covered when the lease
// is re-run.
func ParseSegment(data []byte) (h JournalHeader, completed map[string]core.Experiment, valid int, err error) {
	off := 0
	line := func() ([]byte, bool) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			return nil, false
		}
		l := data[off : off+nl]
		off += nl + 1
		return l, true
	}

	hdr, ok := line()
	if !ok {
		return h, nil, 0, fmt.Errorf("missing journal header")
	}
	// Versions before this one could sample register faults by an
	// equivalence partition ("equivalence" in the header).  Such a
	// journal's register rows over-represent non-benign bits, so read as
	// a plain campaign it would report wrong rates: refuse it.
	var hv struct {
		JournalHeader
		Equivalence string `json:"equivalence"`
	}
	if err := json.Unmarshal(hdr, &hv); err != nil {
		return h, nil, 0, fmt.Errorf("bad journal header: %v", err)
	}
	h = hv.JournalHeader
	if hv.Equivalence != "" {
		return h, nil, 0, fmt.Errorf("journal ran equivalence policy %q, which this version no longer runs; its register rows are not a uniform sample", hv.Equivalence)
	}
	if h.Format != JournalFormat || h.Version != JournalVersion {
		return h, nil, 0, fmt.Errorf("not a %s v%d journal (format %q version %d)",
			JournalFormat, JournalVersion, h.Format, h.Version)
	}
	valid = off

	completed = make(map[string]core.Experiment)
	for {
		start := off
		l, ok := line()
		if !ok {
			break
		}
		if len(bytes.TrimSpace(l)) == 0 {
			valid = off
			continue
		}
		var je JournalEntry
		if err := json.Unmarshal(l, &je); err != nil {
			return h, completed, start, nil
		}
		e, err := je.Experiment()
		if err != nil {
			return h, completed, start, nil
		}
		completed[je.ID] = e
		valid = off
	}
	return h, completed, valid, nil
}

// SameOutcome reports whether two records of one experiment agree — the
// duplicate-resolution predicate for merges and coordinator ingestion.
// Any two workers running the same (seed, region, index) must produce
// the identical outcome, so a disagreement means the campaign is not
// deterministic and the duplicate cannot be resolved.  Forensics is
// deliberately excluded from the comparison: it is auxiliary diagnostic
// data, and shards of one campaign may legitimately differ in whether
// the flight recorder was enabled (old journals have none at all).
func SameOutcome(a, b core.Experiment) bool {
	a.Forensics, b.Forensics = nil, nil
	return a == b
}

// Merged is the reconstruction of a complete campaign from shard
// journals.
type Merged struct {
	App        string
	Seed       uint64
	Injections int
	Ranks      int
	Regions    []core.Region
	Journals   int
	// Adaptive campaigns carry their estimation contract through so the
	// rate table can label its CI columns; Injections is then the
	// per-stratum cap, not the executed count.
	Adaptive   bool
	Confidence float64
	Target     float64
	// Result carries the merged tallies and experiments; rendering it
	// with WriteCampaignCSV / WriteCampaign reproduces the
	// single-process campaign's output byte for byte.
	Result *core.Result
}

// MergeDir merges every .jsonl journal under dir — the coordinator's
// spool layout, one file per lease segment (stolen leases leave one file
// per generation; their intact lines are duplicates the merge resolves).
func MergeDir(dir string) (*Merged, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("report: no .jsonl journals under %s", dir)
	}
	sort.Strings(paths)
	return MergeJournals(paths)
}

// MergeJournals reads shard journals and reconstructs the campaign.  It
// fails unless the journals describe the same campaign, agree on every
// duplicated experiment, and together cover the plan completely — the
// disjoint/complete guarantee of Plan.Shard makes K well-formed shard
// journals always satisfy this.
func MergeJournals(paths []string) (*Merged, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("report: no journals to merge")
	}
	var base JournalHeader
	byID := make(map[string]core.Experiment)
	src := make(map[string]string)
	for i, path := range paths {
		h, exps, err := ReadJournal(path)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			base = h
		} else if !h.SameCampaign(base) {
			return nil, fmt.Errorf("report: %s records campaign (app %s seed %d n %d), %s records (app %s seed %d n %d); refusing to merge",
				paths[0], base.App, base.Seed, base.Injections, path, h.App, h.Seed, h.Injections)
		}
		for id, e := range exps {
			if prev, dup := byID[id]; dup {
				if !SameOutcome(prev, e) {
					return nil, fmt.Errorf("report: experiment %s disagrees between %s and %s — journals are not shards of one campaign",
						id, src[id], path)
				}
				// Keep whichever duplicate carries the richer record —
				// forensics over none, trace-diff divergence over plain
				// forensics — so a shard run with the flight recorder or
				// trace diffing enriches one run without.
				if prev.Forensics == nil && e.Forensics != nil ||
					prev.Divergence() == nil && e.Divergence() != nil {
					byID[id] = e
				}
				continue
			}
			byID[id] = e
			src[id] = path
		}
	}

	regions, err := base.PlanRegions()
	if err != nil {
		return nil, err
	}
	res, err := Assemble(base, byID)
	if err != nil {
		return nil, err
	}
	return &Merged{
		App:        base.App,
		Seed:       base.Seed,
		Injections: base.Injections,
		Ranks:      base.Ranks,
		Regions:    regions,
		Journals:   len(paths),
		Adaptive:   base.Adaptive,
		Confidence: base.Confidence,
		Target:     base.Target,
		Result:     res,
	}, nil
}

// Assemble decides whether the experiments in byID are the finished
// campaign h describes and, if so, returns it in plan order (region
// order, index ascending) — the one place a result set is accepted,
// shared by MergeJournals and the coordinator.  A fixed-n campaign must
// cover its plan.  An adaptive one must be exactly what its contract's
// planner asks for: core.AdaptiveContract.Frontier replayed over the
// recorded outcomes dictates which (region, index) pairs the campaign
// contains, missing ones fail, and extras mean the set was not produced
// by the recorded contract.
func Assemble(h JournalHeader, byID map[string]core.Experiment) (*core.Result, error) {
	regions, err := h.PlanRegions()
	if err != nil {
		return nil, err
	}
	res := &core.Result{}
	var executed []int // per-region prefix length the campaign consists of
	if h.Adaptive {
		var missing []core.PlanEntry
		executed, missing, res.Adaptive, err = core.AdaptiveContract{
			Confidence: h.Confidence, Target: h.Target, RoundSize: h.RoundSize,
			Regions: regions, Priors: h.Priors,
		}.Frontier(core.RecordedIn(byID))
		if err != nil {
			return nil, err
		}
		if len(missing) > 0 {
			return nil, fmt.Errorf("report: merge incomplete: the adaptive planner requires %s, which no journal records", missing[0].ID())
		}
		if total := res.Adaptive.TotalExecuted(); total != len(byID) {
			return nil, fmt.Errorf("report: journals record %d experiments but the adaptive planner replay expects %d — not a completed campaign under the recorded contract",
				len(byID), total)
		}
	} else {
		executed = make([]int, len(regions))
		for i := range executed {
			executed[i] = h.Injections
		}
	}
	var missing []string
	for ri, n := range executed {
		for idx := 0; idx < n; idx++ {
			id := core.PlanEntry{Region: regions[ri], Index: idx}.ID()
			if e, ok := byID[id]; ok {
				res.Experiments = append(res.Experiments, e)
			} else {
				missing = append(missing, id)
			}
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("report: merge incomplete: %d of %d experiments missing (first: %s) — rerun the missing shards or resume them from their journals",
			len(missing), len(missing)+len(res.Experiments), missing[0])
	}
	res.Tallies = core.TallyExperiments(regions, res.Experiments)
	res.Unclassified = core.CountUnapplied(res.Experiments)
	return res, nil
}
