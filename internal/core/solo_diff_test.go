package core_test

import (
	"bytes"
	"reflect"
	"testing"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/core"
	"mpifault/internal/report"
	"mpifault/internal/telemetry"
)

// TestSoloDifferential is the soundness gate of solo-rank replay and of
// ghost peers: on every app and in all eight regions, at 16 ranks on
// message faults too, from checkpoints and from t=0, every experiment
// decided on the injected rank alone — Correct, failed, or deadlocked at
// a starved receive — and every one re-run after a departure, the peers
// ghosts until the fault reaches them, must be the experiment the
// all-live whole job produces; for a message fault that
// includes both arms corrupting the same byte of the same sender's stream,
// and a protocol trap naming the same pc: the MPI call that pulls the
// corrupted packet is the same in the recorded run and in every whole job.
// Both arms run with Forensics and TraceDiff on, and the records must be
// equal too: the flight record and the divergence read off the golden
// tapes for a solo run, or off a ghost's cursor, are the ones the all-live
// job records.  The all-live arm runs every experiment to its end, so this
// is also the audit of every early stop: of dead at injection (dead.go),
// where in every app the memory regions must have stopped some, and of
// convergence (converge), which must have stopped some in every arm that
// restores and none from t=0 — each must be the Correct experiment the
// whole job produces.
func TestSoloDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign differential is slow")
	}
	for _, tc := range []struct {
		name, app    string
		ranks, scale int // 0: the application's default
		regions      []core.Region
		interval     uint64
		n            int    // 0: 32 per region
		seed         uint64 // 0: 2004
	}{
		{name: "wavetoy", app: "wavetoy", interval: core.DefaultCheckpointInterval},
		{name: "minimd", app: "minimd", interval: core.DefaultCheckpointInterval},
		{name: "minicam", app: "minicam", interval: core.DefaultCheckpointInterval},
		{name: "wavetoy/t=0", app: "wavetoy", n: 16},
		{name: "minimd/t=0", app: "minimd", n: 16},
		{name: "minicam/t=0", app: "minicam", n: 16},
		{name: "minicam16-message", app: "minicam", ranks: 16, scale: 16,
			regions: []core.Region{core.RegionMessage}, interval: core.DefaultCheckpointInterval},
		{name: "minicam16-message/t=0", app: "minicam", ranks: 16, scale: 16,
			regions: []core.Region{core.RegionMessage}},
		// The msg_comm16 benchmark's shape, where most Hangs are
		// deadlocks decided solo, at a seed that also re-runs some.
		{name: "minicam16-message/seed2006", app: "minicam", ranks: 16, scale: 16,
			regions: []core.Region{core.RegionMessage}, interval: core.DefaultCheckpointInterval, n: 64, seed: 2006},
		{name: "wavetoy64", app: "wavetoy", ranks: 64, interval: core.DefaultCheckpointInterval, n: 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			app, err := apps.Get(tc.app)
			if err != nil {
				t.Fatal(err)
			}
			build := app.Default
			if tc.ranks > 0 {
				build.Ranks = tc.ranks
			}
			if tc.scale > 0 {
				build.Scale = int32(tc.scale)
			}
			im, err := app.Build(build)
			if err != nil {
				t.Fatal(err)
			}
			regions := tc.regions
			if regions == nil {
				regions = core.Regions()
			}
			n, seed := tc.n, tc.seed
			if n == 0 {
				n = 32
			}
			if seed == 0 {
				seed = 2004
			}
			reg := telemetry.New()
			solo, whole, err := core.SoloDifferential(core.Config{
				Image: im, Ranks: build.Ranks, Injections: n, Seed: seed, Regions: regions,
				KeepExperiments: true, CheckpointInterval: tc.interval,
				Forensics: true, TraceDiff: true, Metrics: reg,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(solo.Experiments) != n*len(regions) || len(whole.Experiments) != len(solo.Experiments) {
				t.Fatalf("%d solo-first and %d whole-job experiments", len(solo.Experiments), len(whole.Experiments))
			}
			divergences := 0
			for i, e := range solo.Experiments {
				w := whole.Experiments[i]
				if !report.SameOutcome(e, w) {
					t.Errorf("%s:\nsolo first %+v\nwhole job  %+v", e.ID(), e, w)
				}
				if !reflect.DeepEqual(e.Forensics, w.Forensics) {
					t.Errorf("%s forensics:\nsolo first %+v %+v\nwhole job  %+v %+v", e.ID(), e.Forensics, e.Divergence(), w.Forensics, w.Divergence())
				}
				if e.Forensics == nil && !e.Unapplied() {
					t.Errorf("%s: no flight record", e.ID())
				}
				if e.Divergence() != nil {
					divergences++
				}
			}
			if divergences == 0 {
				t.Error("no experiment carries a divergence")
			}
			var a, b bytes.Buffer
			report.WriteCampaignCSV(&a, tc.app, solo)
			report.WriteCampaignCSV(&b, tc.app, whole)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Errorf("CSV differs:\n--- solo first ---\n%s--- whole jobs ---\n%s", a.Bytes(), b.Bytes())
			}
			st := solo.Solo
			t.Logf("%+v", st)
			if st.Attempts() != uint64(len(solo.Experiments)) || 4*st.Decided() < 3*st.Attempts() {
				t.Errorf("%+v: want every experiment tried solo and three quarters decided there", st)
			}
			// At seed 2004 the 16-rank message arms decide every experiment
			// solo: no fallback, no peer.
			if st.Peers != st.Fallback*uint64(build.Ranks-1) || st.Fallback > 0 && (st.Materialized == 0 || st.Materialized == st.Peers) ||
				st.Fallback == 0 && tc.ranks != 16 {
				t.Errorf("%+v: want every fallback's peers counted, some materialized and some not", st)
			}
			if hangs := reg.Counter(telemetry.HangMetric(cluster.Deadlock)).Value(); tc.ranks == 16 && tc.regions != nil &&
				(st.Deadlock == 0 || hangs < st.Deadlock) {
				t.Errorf("%+v, %d deadlock hangs counted: want some deadlocks decided solo, each counted as a hang", st, hangs)
			}
			if whole.Solo != (core.SoloStats{}) {
				t.Errorf("the reference arm ran solo: %+v", whole.Solo)
			}
			unread := reg.Counter(telemetry.SoloDeadMetric("unread")).Value()
			indexed := reg.Counter(telemetry.MetricReadIndexInstrs).Value()
			if tc.regions == nil && (unread == 0 || st.Dead < unread || st.Dead > st.Correct) {
				t.Errorf("%+v, %d unread: want some memory flips stopped at their injection, all of them Correct", st, unread)
			}
			if tc.regions != nil && (st.Dead != 0 || indexed != 0) {
				t.Errorf("%+v, read index %d instructions: a message campaign needs no read index", st, indexed)
			}
			// Only a golden snapshot is a state to converge to.
			lifetimes := reg.Histogram(telemetry.MetricFaultLifetime, telemetry.LatencyBuckets).Count()
			if converged := st.Converged > 0; converged != (tc.interval > 0) || st.Dead+st.Converged > st.Correct ||
				reg.Counter(telemetry.MetricSoloConverged).Value() != st.Converged || lifetimes != st.Converged {
				t.Errorf("%+v, %d lifetimes: want some runs converged, all of them Correct and each with its lifetime, exactly when restoring",
					st, lifetimes)
			}
		})
	}
}

// TestExecutedInstrsAddUp: the instructions a campaign's machines really
// execute — solo runs, whole jobs, the ghosts that materialize in them and
// the read index's replays — are the retired-instructions counter less
// CheckpointStats' InstrsSkipped, restored or from t=0.  A ghost that never
// materializes adds nothing to either, and a solo run stopped early — at a
// dead flip, or converged — adds what it ran up to where it stopped.
func TestExecutedInstrsAddUp(t *testing.T) {
	im, ranks := buildApp(t, "minimd")
	for _, interval := range []uint64{core.DefaultCheckpointInterval, 0} {
		res, executed, retired, skipped, indexed, err := core.MachineInstrs(core.Config{
			Image: im, Ranks: ranks, Injections: 12, Seed: 2004,
			Regions:            []core.Region{core.RegionMessage, core.RegionHeap, core.RegionStack},
			CheckpointInterval: interval,
		})
		if err != nil {
			t.Fatal(err)
		}
		if executed != retired-skipped || interval == 0 && skipped != 0 {
			t.Errorf("interval %d: machines executed %d instructions; %d retired less %d skipped is %d",
				interval, executed, retired, skipped, retired-skipped)
		}
		if st := res.Solo; st.Fallback < 4 || st.Materialized == 0 || st.Materialized == st.Peers || st.Dead == 0 ||
			(st.Converged > 0) != (interval > 0) {
			t.Errorf("interval %d: %+v, want a few fallbacks, some peers materialized and some not, some flips dead, some runs converged when restoring", interval, st)
		}
		if indexed == 0 || indexed > executed {
			t.Errorf("interval %d: read index %d of %d executed instructions", interval, indexed, executed)
		}
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

// TestSoloForObservedCampaigns: observers ride the one execution path —
// an observed campaign tries every experiment solo and restores, in the
// message region too, and reports what an unobserved one does.
func TestSoloForObservedCampaigns(t *testing.T) {
	im, ranks := buildApp(t, "minimd")
	base := core.Config{Image: im, Ranks: ranks, Injections: 12, Seed: 3, Parallelism: 2,
		Regions:         []core.Region{core.RegionRegularReg, core.RegionHeap, core.RegionMessage},
		KeepExperiments: true, CheckpointInterval: core.DefaultCheckpointInterval}
	plain, err := core.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.Solo; st.Attempts() != 36 || st.Correct == 0 || st.Failed+st.Fallback == 0 {
		t.Errorf("plain campaign: %+v, want all 36 experiments tried solo, some decided there and some not", st)
	}
	for name, edit := range map[string]func(*core.Config){
		"forensics":  func(c *core.Config) { c.Forensics = true },
		"trace-diff": func(c *core.Config) { c.TraceDiff = true },
		"both":       func(c *core.Config) { c.Forensics, c.TraceDiff = true, true },
	} {
		cfg := base
		edit(&cfg)
		observed, err := core.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if observed.Solo != plain.Solo {
			t.Errorf("%s: %+v solo, the plain campaign %+v", name, observed.Solo, plain.Solo)
		}
		if *observed.Checkpoints != *plain.Checkpoints || observed.Checkpoints.Hits == 0 {
			t.Errorf("%s: %+v restored, the plain campaign %+v", name, observed.Checkpoints, plain.Checkpoints)
		}
		for i, e := range plain.Experiments {
			o := observed.Experiments[i]
			if e.Rank != o.Rank || e.Trigger != o.Trigger || e.Desc != o.Desc || e.Outcome != o.Outcome {
				t.Errorf("%s: %s plain %+v\nobserved %+v", name, e.ID(), e, o)
			}
		}
	}
}
