package core

import (
	"reflect"
	"testing"

	"mpifault/internal/classify"
	"mpifault/internal/sampling"
)

// The differential tests run at a loose d so the per-region caps stay
// small (d=0.15 at 95 % -> cap 43): the contract under test — prefix
// subsetting, byte-identity, replay — is the same at any d.
const testTargetD = 0.15

var adaptiveTestRegions = []Region{RegionRegularReg, RegionData, RegionHeap, RegionMessage}

func runAdaptiveTest(t testing.TB, app string, regions []Region, seed uint64) (*Result, Config) {
	t.Helper()
	im, ranks := buildApp(t, app)
	cfg := Config{
		Image: im, Ranks: ranks, Regions: regions, Seed: seed,
		Adaptive: true, TargetHalfWidth: testTargetD,
		KeepExperiments: true,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Adaptive == nil {
		t.Fatal("adaptive run returned no planner stats")
	}
	return res, cfg
}

// TestAdaptiveMatchesFixedCampaign is the differential gate: on every
// app, the adaptive campaign must (a) execute a strict per-region prefix
// of the fixed-n campaign's experiment sequence with identical outcomes,
// (b) spend no more than the fixed design, and (c) land its per-region
// rate estimates within the combined CI of the fixed-n estimates.
func TestAdaptiveMatchesFixedCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
	cap, err := sampling.SampleSize(DefaultConfidence, testTargetD)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range []string{"wavetoy", "minimd", "minicam"} {
		t.Run(app, func(t *testing.T) {
			adaptive, _ := runAdaptiveTest(t, app, adaptiveTestRegions, 11)
			im, ranks := buildApp(t, app)
			fixed, err := Run(Config{
				Image: im, Ranks: ranks, Regions: adaptiveTestRegions, Seed: 11,
				Injections: cap, KeepExperiments: true,
			})
			if err != nil {
				t.Fatal(err)
			}

			// (a) Subset with identical outcomes: every adaptive experiment
			// appears in the fixed campaign and agrees bit for bit on what
			// happened — the planner chooses WHICH indices run, never what
			// they do.
			byID := make(map[string]Experiment, len(fixed.Experiments))
			for _, e := range fixed.Experiments {
				byID[e.ID()] = e
			}
			for _, e := range adaptive.Experiments {
				f, ok := byID[e.ID()]
				if !ok {
					t.Fatalf("adaptive experiment %s not in the fixed campaign", e.ID())
				}
				if e.Outcome != f.Outcome || e.Trigger != f.Trigger || e.Rank != f.Rank {
					t.Fatalf("experiment %s diverged: adaptive %+v, fixed %+v", e.ID(), e, f)
				}
				if e.Desc != f.Desc {
					t.Fatalf("experiment %s desc diverged: %q vs %q", e.ID(), e.Desc, f.Desc)
				}
			}
			// ... and per region it is a gapless prefix [0, n_r), in plan
			// order.
			next := make(map[Region]int)
			for i, e := range adaptive.Experiments {
				if i > 0 && regionOrdinal(adaptiveTestRegions, e.Region) < regionOrdinal(adaptiveTestRegions, adaptive.Experiments[i-1].Region) {
					t.Fatalf("%s follows %s: not plan order", e.ID(), adaptive.Experiments[i-1].ID())
				}
				if e.Index != next[e.Region] {
					t.Fatalf("%s: index %d breaks the prefix (want %d)", e.Region, e.Index, next[e.Region])
				}
				next[e.Region]++
			}

			// (b) Never more expensive than the worst case.
			st := adaptive.Adaptive
			if st.TotalExecuted() > st.FixedTotal() {
				t.Errorf("adaptive spent %d > fixed %d", st.TotalExecuted(), st.FixedTotal())
			}
			for _, s := range st.Strata {
				if s.Executed > cap {
					t.Errorf("%s executed %d beyond the cap %d", s.Region, s.Executed, cap)
				}
				if !s.Closed {
					t.Errorf("%s never closed", s.Region)
				}
			}

			// (c) Rate agreement within the combined intervals.
			for _, r := range adaptiveTestRegions {
				ta, _ := adaptive.Tally(r)
				tf, _ := fixed.Tally(r)
				if ta.Executions == 0 || tf.Executions == 0 {
					t.Fatalf("%s: empty tally (adaptive %d, fixed %d)", r, ta.Executions, tf.Executions)
				}
				pa := float64(ta.Errors()) / float64(ta.Executions)
				pf := float64(tf.Errors()) / float64(tf.Executions)
				hwA, err := sampling.WilsonHalfWidth(DefaultConfidence, ta.Errors(), ta.Executions)
				if err != nil {
					t.Fatal(err)
				}
				hwF, err := sampling.WilsonHalfWidth(DefaultConfidence, tf.Errors(), tf.Executions)
				if err != nil {
					t.Fatal(err)
				}
				if diff := pa - pf; diff > hwA+hwF || -diff > hwA+hwF {
					t.Errorf("%s: adaptive %.3f vs fixed %.3f disagree beyond the combined CI %.3f",
						r, pa, pf, hwA+hwF)
				}
			}
		})
	}
}

// TestAdaptiveRerunByteIdentical: a fixed (seed, config) adaptive
// campaign is fully deterministic — same rounds, same experiments in the
// same order, same tallies, same planner trace.
func TestAdaptiveRerunByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	regions := []Region{RegionRegularReg, RegionHeap}
	a, _ := runAdaptiveTest(t, "wavetoy", regions, 7)
	b, _ := runAdaptiveTest(t, "wavetoy", regions, 7)
	if !reflect.DeepEqual(a.Experiments, b.Experiments) {
		t.Error("experiment sequences diverged between identical runs")
	}
	if !reflect.DeepEqual(a.Tallies, b.Tallies) {
		t.Error("tallies diverged between identical runs")
	}
	if !reflect.DeepEqual(a.Adaptive, b.Adaptive) {
		t.Error("planner stats diverged between identical runs")
	}
}

// TestAdaptiveReplayMatchesRecorded: the journal self-validation
// property — Frontier over the recorded outcomes must land on exactly
// the experiments the campaign recorded, ask for the pilot round when
// nothing is recorded, and ask again for any entry that goes missing.
func TestAdaptiveReplayMatchesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	regions := []Region{RegionRegularReg, RegionHeap}
	res, cfg := runAdaptiveTest(t, "wavetoy", regions, 7)
	if _, err := NormalizeAdaptive(&cfg); err != nil {
		t.Fatal(err)
	}
	contract := Contract{
		Regions: regions, Injections: cfg.Injections,
		Adaptive: true, Confidence: cfg.Confidence, Target: cfg.TargetHalfWidth, RoundSize: cfg.RoundSize,
		Priors: EffectivePriors(regions, cfg.AVFPriors),
	}
	recorded := make(map[string]Experiment, len(res.Experiments))
	for _, e := range res.Experiments {
		recorded[e.ID()] = e
	}

	// Nothing recorded: the planner's own pilot round, regions in campaign
	// order and indices ascending.
	strata := make([]sampling.Stratum, len(regions))
	for i, r := range regions {
		strata[i] = sampling.Stratum{Name: r.Short(), Prior: contract.Priors[i]}
	}
	planner, err := sampling.NewPlanner(sampling.PlannerConfig{
		Confidence: cfg.Confidence, Target: cfg.TargetHalfWidth, RoundSize: cfg.RoundSize,
	}, strata)
	if err != nil {
		t.Fatal(err)
	}
	var pilot []PlanEntry
	for i, a := range planner.NextRound() {
		for k := 0; k < a; k++ {
			pilot = append(pilot, PlanEntry{Region: regions[i], Index: k})
		}
	}
	done, missing, stats, err := contract.Frontier(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(missing, pilot) {
		t.Errorf("nothing recorded: missing %v, want the pilot round %v", missing, pilot)
	}
	if stats.Rounds != 0 || done != nil {
		t.Errorf("nothing recorded: %d rounds, done %v", stats.Rounds, done)
	}

	// Everything recorded, plus an experiment the planner never
	// allocates: converged exactly where the campaign stopped, on exactly
	// the experiments it ran, in plan order.
	recorded["reg/999"] = Experiment{Region: RegionRegularReg, Index: 999, Outcome: classify.Crash}
	done, missing, stats, err = contract.Frontier(recorded)
	delete(recorded, "reg/999")
	if err != nil {
		t.Fatal(err)
	}
	if missing != nil {
		t.Errorf("full record: still missing %v", missing)
	}
	if !reflect.DeepEqual(stats, res.Adaptive) {
		t.Errorf("full record: stats %+v, campaign recorded %+v", stats, res.Adaptive)
	}
	if len(done) != len(res.Experiments) {
		t.Fatalf("full record: %d done, campaign ran %d", len(done), len(res.Experiments))
	}
	for i, pe := range done {
		if e := res.Experiments[i]; pe.Region != e.Region || pe.Index != e.Index {
			t.Fatalf("full record: done[%d] is %s, the campaign's %s", i, pe.ID(), e.ID())
		}
	}

	// Any one entry dropped: it is what is missing, the replay stops at
	// the round before the one that needs it, and what it has done is
	// everything else that round and the ones before it ran.
	for _, drop := range res.Experiments {
		delete(recorded, drop.ID())
		done, missing, stats, err := contract.Frontier(recorded)
		recorded[drop.ID()] = drop
		if err != nil {
			t.Fatal(err)
		}
		dropped := PlanEntry{Region: drop.Region, Index: drop.Index}
		if !reflect.DeepEqual(missing, []PlanEntry{dropped}) {
			t.Fatalf("dropped %s: missing %v", drop.ID(), missing)
		}
		if stats.Rounds >= res.Adaptive.Rounds {
			t.Fatalf("dropped %s: replay ran past it (%d rounds)", drop.ID(), stats.Rounds)
		}
		for _, pe := range done {
			if pe == dropped {
				t.Fatalf("dropped %s: still done", drop.ID())
			}
		}
	}
}

func TestNormalizeAdaptiveValidation(t *testing.T) {
	base := func() Config {
		return Config{Adaptive: true, Regions: []Region{RegionRegularReg}}
	}

	cfg := base()
	cap, err := NormalizeAdaptive(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Confidence != DefaultConfidence || cfg.TargetHalfWidth != DefaultTargetHalfWidth {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.Injections != cap {
		t.Errorf("Injections %d, want the cap %d", cfg.Injections, cap)
	}
	// Idempotent: a second normalization (Run's own) is a no-op.
	snapshot := cfg
	if _, err := NormalizeAdaptive(&cfg); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snapshot, cfg) {
		t.Errorf("normalization not idempotent: %+v vs %+v", snapshot, cfg)
	}

	cfg = base()
	cfg.NumShards = 3
	if _, err := NormalizeAdaptive(&cfg); err == nil {
		t.Error("sharded adaptive accepted")
	}
	cfg = base()
	cfg.CheckpointInterval = 1000
	if _, err := NormalizeAdaptive(&cfg); err != nil {
		t.Errorf("checkpointing refused (rounds restore from the golden's checkpoints): %v", err)
	}
	cfg = base()
	cfg.Injections = 17
	if _, err := NormalizeAdaptive(&cfg); err == nil {
		t.Error("foreign injection count accepted")
	}
}

// TestAdaptiveEntriesRunExactly: with Entries set, an adaptive campaign
// runs exactly those entries, in their order, as a fixed-n campaign at
// its cap does — a lease of an adaptive campaign is a list.
func TestAdaptiveEntriesRunExactly(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	entries := []PlanEntry{
		{Region: RegionHeap, Index: 7}, {Region: RegionRegularReg, Index: 0}, {Region: RegionRegularReg, Index: 30},
	}
	cfg := Config{
		Image: im, Ranks: ranks, Regions: []Region{RegionRegularReg, RegionHeap}, Seed: 4,
		Adaptive: true, TargetHalfWidth: testTargetD, Entries: entries, KeepExperiments: true,
	}
	adaptive, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Adaptive, cfg.TargetHalfWidth, cfg.Golden = false, 0, adaptive.Golden
	cfg.Injections, err = sampling.SampleSize(DefaultConfidence, testTargetD)
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(adaptive.Experiments) != len(entries) {
		t.Fatalf("ran %d experiments, want the %d entries", len(adaptive.Experiments), len(entries))
	}
	for i, e := range adaptive.Experiments {
		if e.Region != entries[i].Region || e.Index != entries[i].Index {
			t.Errorf("experiment %d is %s, want %s", i, e.ID(), entries[i].ID())
		}
	}
	if !reflect.DeepEqual(adaptive.Experiments, fixed.Experiments) {
		t.Errorf("adaptive entries ran\n%+v\nthe fixed-n campaign at its cap\n%+v", adaptive.Experiments, fixed.Experiments)
	}
}
