package core_test

import (
	"bytes"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/core"
	"mpifault/internal/report"
)

// TestSoloDifferential is the soundness gate of solo-rank replay: on every
// app and in all eight regions, every experiment decided on the injected
// rank alone — and every one re-run after a departure — must be the
// experiment the whole job produces; for a message fault that includes
// both arms corrupting the same byte of the same sender's stream, and a
// protocol trap naming the same pc: the MPI call that pulls the corrupted
// packet is the same in the recorded run and in every whole job.
func TestSoloDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
	for _, app := range []string{"wavetoy", "minimd", "minicam"} {
		t.Run(app, func(t *testing.T) {
			im, ranks := buildApp(t, app)
			solo, whole, err := core.SoloDifferential(core.Config{
				Image: im, Ranks: ranks, Injections: 32, Seed: 2004, Regions: core.Regions(),
				KeepExperiments: true, CheckpointInterval: core.DefaultCheckpointInterval,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(solo.Experiments) != 32*int(core.NumRegions) || len(whole.Experiments) != len(solo.Experiments) {
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
// The rank receives nothing, so its message experiments have no byte to
// name and run nothing at all.
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
		Image: im, Ranks: 1, Injections: 12, Seed: 9, Regions: core.Regions(), KeepExperiments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range solo.Experiments {
		if !report.SameOutcome(e, whole.Experiments[i]) {
			t.Errorf("%s:\nsolo first %+v\nwhole job  %+v", e.ID(), e, whole.Experiments[i])
		}
		if e.Region == core.RegionMessage && (e.Desc != "no traffic" || e.Outcome != classify.Correct) {
			t.Errorf("%s: %+v, want no traffic", e.ID(), e)
		}
	}
	if st := solo.Solo; st.Correct == 0 || st.Attempts() != uint64(12*len(nonMessageRegions)) {
		t.Errorf("%+v: want every non-message experiment tried solo and some decided Correct", st)
	}
}

// TestSoloNeverForObservedCampaigns: the campaigns that must see every
// rank attempt no solo run; every other experiment, in the message region
// too, starts on one rank.  Observed or not, a message experiment names
// the same byte.
func TestSoloNeverForObservedCampaigns(t *testing.T) {
	im, ranks := buildApp(t, "minimd")
	base := core.Config{Image: im, Ranks: ranks, Injections: 4, Seed: 3, Parallelism: 2}
	for name, edit := range map[string]func(*core.Config){
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

	msg := base
	msg.Regions, msg.Injections, msg.KeepExperiments = []core.Region{core.RegionMessage}, 24, true
	msg.CheckpointInterval = core.DefaultCheckpointInterval
	plain, err := core.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.Solo; st.Attempts() != 24 || st.Correct == 0 || st.Failed+st.Fallback == 0 {
		t.Errorf("message campaign: %+v, want all 24 experiments tried solo, some decided there and some not", st)
	}
	msg.Forensics = true
	observed, err := core.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if observed.Solo != (core.SoloStats{}) {
		t.Errorf("message campaign with forensics: %+v, want no solo attempt", observed.Solo)
	}
	for i, e := range plain.Experiments {
		o := observed.Experiments[i]
		if e.Rank != o.Rank || e.Trigger != o.Trigger || e.Desc != o.Desc || e.Outcome != o.Outcome {
			t.Errorf("%s: solo first, restored %+v\nwhole job from t=0 with forensics %+v", e.ID(), e, o)
		}
	}
}
