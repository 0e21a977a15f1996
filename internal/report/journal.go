package report

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"mpifault/internal/analysis"
	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/image"
)

// A campaign journal is an append-only JSONL checkpoint of finished
// experiments: one header line identifying the campaign (app, seed,
// injections, regions, ranks, a non-default scale, shard), then one
// line per completed experiment.  Journals make campaigns restartable —
// a killed run resumes by replaying its journal into
// core.Config.Completed — and mergeable: the union of K disjoint shard
// journals reconstructs the single-process campaign exactly, because
// every experiment's outcome is a pure function of (seed, region,
// index).

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
	// Scale is the per-rank problem size when it differs from the app's
	// default (faultcampaign -scale); default-scale journals omit it.
	Scale int `json:"scale,omitempty"`

	// Adaptive campaigns pin their whole estimation contract in the
	// header: with the confidence, target half-width, round size and
	// pilot priors recorded, a merge can replay the deterministic planner
	// over the journal's outcomes (Contract().Assemble) and verify the
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

// NewCampaign defines a campaign.  spec names what is asked for — App,
// Seed, Regions (any names core.ParseRegion takes; none means all eight),
// Ranks and Scale (0: the app's default), Shard/NumShards, and either
// Injections or Adaptive with its Target, Confidence and RoundSize (0:
// the defaults) — and h is the header that records it: the definition
// every run of the campaign derives from (Config), in faultcampaign and
// the coordinator alike.  h has Ranks filled in, Scale only where it
// differs from the app's default, short region names, and for an
// adaptive campaign its terms normalized (core.NormalizeAdaptive), which
// sizes Injections to the fixed-n cap, and the static AVF priors of its
// image.  im is that image, built for the priors; nil for a fixed-n
// campaign, whose image Config builds.  An adaptive campaign cannot be
// sharded, and a fixed-n one takes no adaptive terms.
func NewCampaign(spec JournalHeader) (h JournalHeader, im *image.Image, err error) {
	a, err := apps.Get(spec.App)
	if err != nil {
		return h, nil, err
	}
	cfg := core.Config{
		Ranks: a.Default.Ranks, Injections: spec.Injections, Seed: spec.Seed, Shard: spec.Shard, NumShards: spec.NumShards,
		Adaptive: spec.Adaptive, TargetHalfWidth: spec.Target, Confidence: spec.Confidence, RoundSize: spec.RoundSize,
	}
	if spec.Ranks > 0 {
		cfg.Ranks = spec.Ranks
	}
	for _, s := range spec.Regions {
		r, err := core.ParseRegion(strings.TrimSpace(s))
		if err != nil {
			return h, nil, err
		}
		cfg.Regions = append(cfg.Regions, r)
	}
	switch {
	case spec.Adaptive:
		if _, err := core.NormalizeAdaptive(&cfg); err != nil {
			return h, nil, err
		}
	case spec.Target != 0 || spec.Confidence != 0 || spec.RoundSize != 0:
		return h, nil, fmt.Errorf("report: a target half-width, confidence or round size is a term of an adaptive campaign")
	case spec.Injections <= 0:
		return h, nil, fmt.Errorf("report: injections must be positive")
	}
	h = CampaignHeader(spec.App, cfg)
	if spec.Scale > 0 && spec.Scale != int(a.Default.Scale) {
		h.Scale = spec.Scale // a different problem: not mixable with default-scale shards
	}
	if !h.Adaptive {
		return h, nil, nil
	}
	if im, err = h.build(); err != nil {
		return h, nil, err
	}
	labels, err := analysis.AVFPriors(im)
	if err != nil {
		return h, nil, fmt.Errorf("avf priors %s: %v", h.App, err)
	}
	priors, err := core.PriorsFromLabels(labels)
	if err != nil {
		return h, nil, err
	}
	h.Priors = core.EffectivePriors(cfg.Regions, priors)
	return h, im, nil
}

// Config is the run h defines: its image (im, as NewCampaign returned
// it, or built from App, Ranks and Scale when nil), ranks, regions,
// injections and seed; a shard's entries (Plan.Shard); an adaptive
// campaign's terms, with the priors h records.  How a process runs it —
// parallelism, observers, checkpointing, callbacks, a lease's Entries —
// is the caller's to add.
func (h JournalHeader) Config(im *image.Image) (core.Config, error) {
	regions, err := h.planRegions()
	if err != nil {
		return core.Config{}, err
	}
	if h.NumShards > 1 && (h.Shard < 0 || h.Shard >= h.NumShards) {
		return core.Config{}, fmt.Errorf("report: journal header: shard %d/%d out of range", h.Shard, h.NumShards)
	}
	if h.Adaptive && len(h.Priors) != len(regions) {
		return core.Config{}, fmt.Errorf("report: journal header: %d priors for %d regions", len(h.Priors), len(regions))
	}
	if im == nil {
		if im, err = h.build(); err != nil {
			return core.Config{}, err
		}
	}
	cfg := core.Config{Image: im, Ranks: h.Ranks, Injections: h.Injections, Regions: regions, Seed: h.Seed}
	if h.NumShards > 1 {
		cfg.Entries = core.Plan{Regions: regions, Injections: h.Injections}.Shard(h.Shard, h.NumShards)
	}
	if h.Adaptive {
		cfg.Adaptive, cfg.TargetHalfWidth, cfg.Confidence, cfg.RoundSize = true, h.Target, h.Confidence, h.RoundSize
		cfg.AVFPriors = make(map[core.Region]float64, len(regions))
		for i, r := range regions {
			cfg.AVFPriors[r] = h.Priors[i]
		}
	}
	return cfg, nil
}

// build builds the image h runs: App at Ranks and, when h records one,
// Scale.
func (h JournalHeader) build() (*image.Image, error) {
	a, err := apps.Get(h.App)
	if err != nil {
		return nil, err
	}
	b := a.Default
	b.Ranks = h.Ranks
	if h.Scale > 0 {
		b.Scale = int32(h.Scale)
	}
	im, err := a.Build(b)
	if err != nil {
		return nil, fmt.Errorf("build %s: %v", h.App, err)
	}
	return im, nil
}

// SameCampaign reports whether two headers describe shards of the same
// campaign (everything but the shard coordinates must match, including
// the adaptive estimation contract when present).
func (h JournalHeader) SameCampaign(o JournalHeader) bool {
	if h.App != o.App || h.Seed != o.Seed || h.Injections != o.Injections ||
		h.Ranks != o.Ranks || h.Scale != o.Scale || len(h.Regions) != len(o.Regions) {
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

// planRegions parses the header's region list back into core regions.
func (h JournalHeader) planRegions() ([]core.Region, error) {
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
// it; the coordinator accepts a lease's segment only when it carries
// every entry of the lease.
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
// duplicate-resolution predicate for merging journals.
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
	// Header is the campaign's, as its first journal records it; an
	// adaptive one's Injections is the per-stratum cap, not the executed
	// count.
	Header   JournalHeader
	Journals int
	// Result carries the merged tallies and experiments; rendering it
	// with WriteCampaignCSV / WriteCampaign reproduces the
	// single-process campaign's output byte for byte.
	Result *core.Result
}

// MergeDir merges every .jsonl journal under dir — the coordinator's
// spool layout, one file per completed lease.
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

	contract, err := base.Contract()
	if err != nil {
		return nil, err
	}
	res, err := contract.Assemble(byID)
	if err != nil {
		return nil, err
	}
	return &Merged{Header: base, Journals: len(paths), Result: res}, nil
}

// Contract is the campaign h describes, as core.Contract: what Frontier
// replays and Assemble accepts.  It is the whole campaign, whichever
// shard h itself covers.
func (h JournalHeader) Contract() (core.Contract, error) {
	regions, err := h.planRegions()
	if err != nil {
		return core.Contract{}, err
	}
	return core.Contract{
		Regions: regions, Injections: h.Injections,
		Adaptive: h.Adaptive, Confidence: h.Confidence, Target: h.Target, RoundSize: h.RoundSize, Priors: h.Priors,
	}, nil
}
