package core_test

// Checkpoints belong to the golden artifact: every Run handed the same
// Golden — adaptive rounds, coordinator leases — restores from one
// capture, and nothing a campaign writes may show whether it did.

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/mpi"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

var nonMessageRegions = []core.Region{
	core.RegionRegularReg, core.RegionFPReg, core.RegionBSS, core.RegionData,
	core.RegionStack, core.RegionText, core.RegionHeap,
}

// adaptiveConfig is an adaptive campaign at a loose d in small rounds:
// caps stay small yet several rounds run, and the contract under test is
// the same at any d.
func adaptiveConfig(t *testing.T, app string, regions []core.Region, d float64, interval uint64, reg *telemetry.Registry) core.Config {
	t.Helper()
	a, err := apps.Get(app)
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{
		Image: im, Ranks: a.Default.Ranks, Regions: regions, Seed: 2004,
		Adaptive: true, TargetHalfWidth: d, RoundSize: 8, Parallelism: 2,
		KeepExperiments:    true,
		CheckpointInterval: interval, Metrics: reg,
	}
	if _, err := core.NormalizeAdaptive(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// adaptiveArtifacts runs adaptiveConfig's campaign and returns its CSV,
// journal bytes, result and the number of checkpoints telemetry saw
// captured.
func adaptiveArtifacts(t *testing.T, app string, regions []core.Region, d float64, interval uint64) (string, []byte, *core.Result, uint64) {
	t.Helper()
	reg := telemetry.New()
	cfg := adaptiveConfig(t, app, regions, d, interval, reg)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	j, err := report.CreateJournal(path, report.CampaignHeader(app, cfg))
	if err != nil {
		t.Fatal(err)
	}
	cfg.OnExperiment = func(e core.Experiment) {
		if err := j.Append(e); err != nil {
			t.Errorf("journal append: %v", err)
		}
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	report.WriteCampaignCSV(&csv, app, res)
	return csv.String(), raw, res, reg.Counter(telemetry.MetricCheckpointsTaken).Value()
}

func TestAdaptiveCheckpointDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
	for _, app := range []string{"wavetoy", "minimd", "minicam"} {
		t.Run(app, func(t *testing.T) {
			refCSV, refJournal, ref, _ := adaptiveArtifacts(t, app, nonMessageRegions, 0.2, 0)
			if ref.Checkpoints != nil {
				t.Fatalf("checkpointing off, but Result.Checkpoints = %+v", ref.Checkpoints)
			}
			csv, journal, res, captured := adaptiveArtifacts(t, app, nonMessageRegions, 0.2, core.DefaultCheckpointInterval)
			if csv != refCSV {
				t.Errorf("CSV differs from the checkpointing-off campaign:\n--- off ---\n%s\n--- on ---\n%s", refCSV, csv)
			}
			if !bytes.Equal(journal, refJournal) {
				t.Errorf("journal differs from the checkpointing-off campaign")
			}
			if !reflect.DeepEqual(res.Experiments, ref.Experiments) {
				t.Errorf("experiments differ from the checkpointing-off campaign")
			}
			st := res.Checkpoints
			if st == nil || st.Taken == 0 {
				t.Fatalf("expected live checkpoints, got %+v", st)
			}
			if res.Adaptive.Rounds < 2 {
				t.Fatalf("campaign closed in %d round; the test needs a later round to restore", res.Adaptive.Rounds)
			}
			// One capture serves every round: telemetry counts snapshots
			// as they are captured, so a second pass would double it.
			if captured != uint64(st.Taken) {
				t.Errorf("%d checkpoints captured over %d rounds, want one pass of %d", captured, res.Adaptive.Rounds, st.Taken)
			}
			if st.Hits == 0 || st.InstrsSkipped == 0 {
				t.Errorf("no experiment restored: %+v", st)
			}
			if int(st.Hits+st.Misses) != res.Adaptive.TotalExecuted() {
				t.Errorf("hits %d + misses %d != %d experiments: the stats are not summed over rounds",
					st.Hits, st.Misses, res.Adaptive.TotalExecuted())
			}

			// A message fault is addressed by sender and offset in that
			// sender's stream, so a restored experiment corrupts the byte
			// the one from t=0 does, and ends at the same pc.
			msg := []core.Region{core.RegionMessage}
			offCSV, _, off, _ := adaptiveArtifacts(t, app, msg, 0.15, 0)
			onCSV, _, on, _ := adaptiveArtifacts(t, app, msg, 0.15, core.DefaultCheckpointInterval)
			if on.Checkpoints == nil || on.Checkpoints.Hits == 0 {
				t.Errorf("no message experiment restored: %+v", on.Checkpoints)
			}
			if onCSV != offCSV {
				t.Errorf("message CSV differs:\n--- off ---\n%s\n--- on ---\n%s", offCSV, onCSV)
			}
			if len(on.Experiments) != len(off.Experiments) {
				t.Fatalf("%d message experiments restored, %d from t=0", len(on.Experiments), len(off.Experiments))
			}
			for i, e := range on.Experiments {
				if f := off.Experiments[i]; !report.SameOutcome(e, f) {
					t.Errorf("%s restored %+v\nfrom t=0 %+v", e.ID(), e, f)
				}
			}
		})
	}
}

// TestAdaptiveResumeByteIdentical: an adaptive campaign stopped
// mid-round and resumed from its journal is the uninterrupted campaign.
// Frontier over the journal's outcomes passes the finished rounds
// without running anything and asks only for what the interrupted round
// still lacks.
func TestAdaptiveResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	const app = "wavetoy"
	wantCSV, _, want, _ := adaptiveArtifacts(t, app, nonMessageRegions, 0.2, 0)

	cfg := adaptiveConfig(t, app, nonMessageRegions, 0.2, 0, nil)
	hdr := report.CampaignHeader(app, cfg)
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	session := func(j *report.Journal, onAppend func()) *core.Result {
		t.Helper()
		cfg.OnExperiment = func(e core.Experiment) {
			if err := j.Append(e); err != nil {
				t.Errorf("journal append: %v", err)
			}
			onAppend()
		}
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return res
	}

	// First session: the stop fires a few experiments into round 2.  One
	// worker, so that deliveries follow finishes one by one: with two, an
	// entry that falls back to a whole job holds up plan-order delivery
	// while the other worker runs the rest of the round alone.
	j, err := report.CreateJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	cfg.Stop, cfg.Parallelism = stop, 1
	left := len(nonMessageRegions)*cfg.RoundSize + 4
	part := session(j, func() {
		if left--; left == 0 {
			close(stop)
		}
	})
	if !part.Interrupted || part.Adaptive.Rounds != 1 || want.Adaptive.Rounds < 3 {
		t.Fatalf("the stop did not land mid-campaign: interrupted=%v after %d of %d rounds",
			part.Interrupted, part.Adaptive.Rounds, want.Adaptive.Rounds)
	}

	// Second session, the way faultcampaign -resume runs it.
	j, completed, err := report.ResumeJournal(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	if len(completed) <= len(nonMessageRegions)*cfg.RoundSize || len(completed) >= want.Adaptive.TotalExecuted() {
		t.Fatalf("journal holds %d experiments, want a partial second round", len(completed))
	}
	cfg.Stop, cfg.Completed, cfg.Parallelism = nil, completed, 2
	rerun := 0
	got := session(j, func() { rerun++ })
	if got.Interrupted {
		t.Fatal("resumed campaign reports Interrupted")
	}
	if rerun != want.Adaptive.TotalExecuted()-len(completed) {
		t.Errorf("resume ran %d experiments, want exactly the %d the journal lacked",
			rerun, want.Adaptive.TotalExecuted()-len(completed))
	}
	if !reflect.DeepEqual(got.Adaptive, want.Adaptive) {
		t.Errorf("planner stats differ from the uninterrupted campaign:\n%+v\n%+v", got.Adaptive, want.Adaptive)
	}
	if !reflect.DeepEqual(got.Tallies, want.Tallies) || !reflect.DeepEqual(got.Experiments, want.Experiments) {
		t.Errorf("resumed result differs from the uninterrupted campaign")
	}
	m, err := report.MergeJournals([]string{path})
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	report.WriteCampaignCSV(&csv, m.Header.App, m.Result)
	if csv.String() != wantCSV {
		t.Errorf("journal merge differs from the uninterrupted campaign:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s", csv.String(), wantCSV)
	}
}

// TestGoldenCarriesCheckpoints: the Run that executes the golden run gets
// its snapshots from that one execution, every Run handed the Golden
// restores from them, and a Golden is used as it is — nothing is captured
// after the fact.
func TestGoldenCarriesCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildWavetoy(t)
	reg := telemetry.New()
	captured := reg.Counter(telemetry.MetricCheckpointsTaken)
	base := core.Config{
		Image: im, Ranks: ranks, Injections: 8, Seed: 77, Parallelism: 2,
		Regions:         []core.Region{core.RegionRegularReg, core.RegionStack},
		KeepExperiments: true, Metrics: reg,
		CheckpointInterval: core.DefaultCheckpointInterval,
	}
	plan := core.Plan{Regions: base.Regions, Injections: base.Injections}
	run := func(cfg core.Config, lo, hi int) *core.Result {
		t.Helper()
		cfg.Entries = plan.Range(lo, hi)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Checkpoints == nil {
			t.Fatalf("entries [%d,%d): checkpointing on, but Result.Checkpoints is nil", lo, hi)
		}
		return res
	}

	// Nothing to run, nothing run: the golden run starts with the first
	// round that has work.
	all := plan.Range(0, plan.Total())
	done := make(map[string]core.Experiment, len(all))
	for _, pe := range all {
		done[pe.ID()] = core.Experiment{Region: pe.Region, Index: pe.Index}
	}
	nothing := base
	nothing.Completed = done
	empty, err := core.Run(nothing)
	if err != nil {
		t.Fatal(err)
	}
	if n := reg.Counter(telemetry.MetricJobs).Value(); n != 0 || empty.Golden != nil || empty.Checkpoints != nil || captured.Value() != 0 {
		t.Fatalf("a Run with every entry completed ran %d experiment jobs, golden %v, checkpoints %+v",
			n, empty.Golden != nil, empty.Checkpoints)
	}

	// One golden pass: the execution that produced the reference output
	// and the tapes is the one that took the snapshots.
	first := run(base, 0, 8)
	job := first.Golden.Result
	if first.Checkpoints.Taken == 0 || len(job.Snapshots) != first.Checkpoints.Taken || len(job.Tapes) != ranks {
		t.Fatalf("%d checkpoints, but the golden job recorded %d snapshots and %d tapes",
			first.Checkpoints.Taken, len(job.Snapshots), len(job.Tapes))
	}
	taken := uint64(first.Checkpoints.Taken)
	if captured.Value() != taken {
		t.Fatalf("the golden run took %d checkpoints, telemetry counted %d", taken, captured.Value())
	}

	base.Golden = first.Golden
	second := run(base, 8, 16)
	if captured.Value() != taken {
		t.Errorf("Runs handed a Golden captured again (%d checkpoints, want %d)", captured.Value(), taken)
	}
	for _, res := range []*core.Result{first, second} {
		if uint64(res.Checkpoints.Taken) != taken || res.Checkpoints.Hits == 0 {
			t.Errorf("a Run handed the Golden did not restore from its snapshots: %+v", res.Checkpoints)
		}
	}

	// A Golden is used as it is: another interval does not re-cut it, and
	// one recorded without snapshots starts everything at t=0.
	wider := base
	wider.CheckpointInterval = 4 * core.DefaultCheckpointInterval
	if res := run(wider, 0, 8); uint64(res.Checkpoints.Taken) != taken || captured.Value() != taken {
		t.Errorf("another interval on a handed Golden: %+v, %d captured, want its %d snapshots as they are",
			res.Checkpoints, captured.Value(), taken)
	}
	bare, err := core.RunGolden(im, ranks, mpi.Config{}, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	noSnaps := base
	noSnaps.Golden = bare
	fromZero := run(noSnaps, 0, 8)
	if st := fromZero.Checkpoints; st.Taken != 0 || st.Hits != 0 || st.Misses != 8 || captured.Value() != taken {
		t.Errorf("a Golden without snapshots: %+v, want 0 checkpoints and 8 misses", st)
	}
	// A run of its own at the wider interval takes fewer.
	wider.Golden, wider.Metrics = nil, nil
	rebuilt := run(wider, 0, 8)
	if rebuilt.Checkpoints.Taken == 0 || uint64(rebuilt.Checkpoints.Taken) >= taken {
		t.Errorf("4x interval took %d checkpoints, default took %d", rebuilt.Checkpoints.Taken, taken)
	}

	// Restored or not, shared Golden or fresh: the same experiments.
	scratch := base
	scratch.Golden, scratch.CheckpointInterval, scratch.Metrics = nil, 0, nil
	scratch.Entries = plan.Range(0, 16)
	wantRes, err := core.Run(scratch)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]core.Experiment(nil), first.Experiments...), second.Experiments...)
	if !reflect.DeepEqual(got, wantRes.Experiments) {
		t.Errorf("experiments restored from a shared Golden differ from a scratch campaign")
	}
	for name, res := range map[string]*core.Result{"a Golden without snapshots": fromZero, "a wider interval": rebuilt} {
		if !reflect.DeepEqual(res.Experiments, first.Experiments) {
			t.Errorf("experiments of %s differ", name)
		}
	}

	// Concurrent Runs share one Golden's snapshots read-only (-race).
	conc := base
	conc.Metrics = telemetry.New()
	conc.Parallelism = 1
	results := make([]*core.Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := conc
			cfg.Entries = plan.Range(4*i, 4*i+4)
			var err error
			if results[i], err = core.Run(cfg); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	got = got[:0]
	for _, r := range results {
		got = append(got, r.Experiments...)
	}
	if !reflect.DeepEqual(got, wantRes.Experiments) {
		t.Errorf("experiments of concurrent Runs on one Golden differ from a scratch campaign")
	}
}
