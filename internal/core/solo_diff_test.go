package core_test

import (
	"bytes"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/core"
	"mpifault/internal/report"
)

// TestSoloDifferential is the soundness gate of solo-rank replay: on every
// app, every experiment decided on the injected rank alone — and every one
// re-run after a departure — must be the experiment the whole job produces.
func TestSoloDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
	for _, app := range []string{"wavetoy", "minimd", "minicam"} {
		t.Run(app, func(t *testing.T) {
			im, ranks := buildApp(t, app)
			solo, whole, err := core.SoloDifferential(core.Config{
				Image: im, Ranks: ranks, Injections: 32, Seed: 2004, Regions: nonMessageRegions,
				KeepExperiments: true, CheckpointInterval: core.DefaultCheckpointInterval,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(solo.Experiments) != 32*len(nonMessageRegions) || len(whole.Experiments) != len(solo.Experiments) {
				t.Fatalf("%d solo-first and %d whole-job experiments", len(solo.Experiments), len(whole.Experiments))
			}
			for i, e := range solo.Experiments {
				if !report.SameOutcome(e, whole.Experiments[i]) {
					t.Errorf("%s:\nsolo first %+v\nwhole job  %+v", e.ID(), e, whole.Experiments[i])
				}
			}
			var a, b bytes.Buffer
			report.WriteCampaignCSV(&a, app, solo)
			report.WriteCampaignCSV(&b, app, whole)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("CSV differs:\n--- solo first ---\n%s--- whole jobs ---\n%s", a.Bytes(), b.Bytes())
			}
			st := solo.Solo
			if st.Attempts() != uint64(len(solo.Experiments)) || 4*(st.Correct+st.Failed) < 3*st.Attempts() {
				t.Errorf("%+v: want every experiment tried solo and three quarters decided there", st)
			}
			if whole.Solo != (core.SoloStats{}) {
				t.Errorf("the reference arm ran solo: %+v", whole.Solo)
			}
		})
	}
}

// TestSoloOneRankWorld: with nobody to talk to the tape holds only the
// rank's own writes, and the golden run's tape serves (no checkpoints).
func TestSoloOneRankWorld(t *testing.T) {
	a, err := apps.Get("wavetoy")
	if err != nil {
		t.Fatal(err)
	}
	build := a.Default
	build.Ranks = 1
	im, err := a.Build(build)
	if err != nil {
		t.Fatal(err)
	}
	solo, whole, err := core.SoloDifferential(core.Config{
		Image: im, Ranks: 1, Injections: 12, Seed: 9, Regions: nonMessageRegions, KeepExperiments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range solo.Experiments {
		if !report.SameOutcome(e, whole.Experiments[i]) {
			t.Errorf("%s:\nsolo first %+v\nwhole job  %+v", e.ID(), e, whole.Experiments[i])
		}
	}
	if st := solo.Solo; st.Correct == 0 || st.Attempts() != uint64(len(solo.Experiments)) {
		t.Errorf("%+v: want every experiment tried solo and some decided Correct", st)
	}
}

// TestSoloNeverForObservedOrMessageCampaigns: the campaigns that must see
// every rank, and the region whose trigger depends on the interleaving,
// attempt no solo run.
func TestSoloNeverForObservedOrMessageCampaigns(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	base := core.Config{Image: im, Ranks: ranks, Injections: 4, Seed: 3, Parallelism: 2}
	for name, edit := range map[string]func(*core.Config){
		"message":    func(c *core.Config) { c.Regions = []core.Region{core.RegionMessage} },
		"forensics":  func(c *core.Config) { c.Regions = nonMessageRegions[:2]; c.Forensics = true },
		"trace-diff": func(c *core.Config) { c.Regions = nonMessageRegions[:2]; c.TraceDiff = true },
	} {
		cfg := base
		edit(&cfg)
		res, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Solo != (core.SoloStats{}) {
			t.Errorf("%s: %+v, want no solo attempt", name, res.Solo)
		}
	}
	cfg := base
	cfg.Regions = nonMessageRegions[:2]
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Solo.Attempts() != 8 {
		t.Errorf("plain campaign: %+v, want all 8 experiments tried solo", res.Solo)
	}
}
