package core

import (
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/classify"
	"mpifault/internal/image"
	"mpifault/internal/mpi"
)

func defaultMPI() mpi.Config { return mpi.Config{} }

func buildApp(t testing.TB, name string) (*image.Image, int) {
	t.Helper()
	a, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	im, err := a.Build(a.Default)
	if err != nil {
		t.Fatal(err)
	}
	return im, a.Default.Ranks
}

func TestGoldenRunWavetoy(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	g, err := RunGolden(im, ranks, defaultMPI(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Output) == 0 {
		t.Fatal("golden output empty")
	}
	for r := 0; r < ranks; r++ {
		if g.Instrs[r] == 0 {
			t.Fatalf("rank %d retired no instructions", r)
		}
		if g.RecvBytes[r] == 0 {
			t.Fatalf("rank %d received no traffic", r)
		}
	}
}

func TestMiniCampaignWavetoy(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildApp(t, "wavetoy")
	res, err := Run(Config{
		Image: im, Ranks: ranks, Injections: 24, Seed: 42,
		KeepExperiments: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Tallies) != int(NumRegions) {
		t.Fatalf("got %d tallies", len(res.Tallies))
	}
	reg, _ := res.Tally(RegionRegularReg)
	fp, _ := res.Tally(RegionFPReg)
	// The paper's headline shape: integer registers are far more
	// vulnerable than FP registers (62.8%% vs 4.0%% for Wavetoy).  At 24
	// injections the confidence is loose; only require the ordering.
	if reg.Errors() <= fp.Errors() {
		t.Errorf("regular-register errors (%d) should exceed FP-register errors (%d)",
			reg.Errors(), fp.Errors())
	}
	if reg.ErrorRate() < 20 {
		t.Errorf("regular-register error rate %.1f%%, expected substantial", reg.ErrorRate())
	}
	// Every region must have run the requested number of injections.
	for _, tl := range res.Tallies {
		if tl.Executions != 24 {
			t.Errorf("%s ran %d executions", tl.Region, tl.Executions)
		}
	}
	// Experiments carry descriptions for manifested faults.
	var described int
	for _, e := range res.Experiments {
		if e.Desc != "" {
			described++
		}
	}
	if described == 0 {
		t.Error("no experiment recorded a fault description")
	}
	// At least one classic crash should appear across 192 injections.
	var crashes int
	for _, tl := range res.Tallies {
		crashes += tl.Outcomes[classify.Crash]
	}
	if crashes == 0 {
		t.Error("expected at least one Crash manifestation")
	}
}

func TestShardedCampaignEqualsFull(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildApp(t, "wavetoy")
	for _, tc := range []struct {
		seed uint64
		k    int
	}{{7, 2}, {42, 3}} {
		base := Config{
			Image: im, Ranks: ranks, Injections: 6, Seed: tc.seed,
			Regions:         []Region{RegionRegularReg, RegionText},
			KeepExperiments: true,
		}
		full, err := Run(base)
		if err != nil {
			t.Fatal(err)
		}
		merged := make(map[string]Experiment)
		for shard := 0; shard < tc.k; shard++ {
			cfg := base
			cfg.Shard, cfg.NumShards = shard, tc.k
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Experiments {
				if _, dup := merged[e.ID()]; dup {
					t.Fatalf("seed %d K=%d: experiment %s ran in two shards", tc.seed, tc.k, e.ID())
				}
				merged[e.ID()] = e
			}
		}
		if len(merged) != len(full.Experiments) {
			t.Fatalf("seed %d K=%d: shards ran %d experiments, full run %d",
				tc.seed, tc.k, len(merged), len(full.Experiments))
		}
		for _, want := range full.Experiments {
			got, ok := merged[want.ID()]
			if !ok {
				t.Errorf("seed %d K=%d: experiment %s missing from shards", tc.seed, tc.k, want.ID())
				continue
			}
			if got != want {
				t.Errorf("seed %d K=%d: experiment %s differs:\nshard: %+v\nfull:  %+v",
					tc.seed, tc.k, want.ID(), got, want)
			}
		}
	}
}

func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign test is slow")
	}
	im, ranks := buildApp(t, "wavetoy")
	cfg := Config{
		Image: im, Ranks: ranks, Injections: 8, Seed: 7,
		Regions: []Region{RegionRegularReg, RegionText},
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Tallies {
		if a.Tallies[i] != b.Tallies[i] {
			t.Errorf("region %s: tallies differ between identical campaigns:\n%+v\n%+v",
				a.Tallies[i].Region, a.Tallies[i], b.Tallies[i])
		}
	}
}

// TestEntriesAndGoldenReuse covers the coordinator's lease path: an
// explicit Entries subset runs exactly those plan entries, a supplied
// Golden skips the reference run without changing any outcome, a shard
// filter composes with the subset, and entries outside the plan are
// rejected.
func TestEntriesAndGoldenReuse(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	base := Config{
		Image: im, Ranks: ranks, Injections: 4, Seed: 11,
		Regions:         []Region{RegionRegularReg, RegionMessage},
		KeepExperiments: true,
	}
	full, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}

	plan := Plan{Regions: base.Regions, Injections: base.Injections}
	golden, err := RunGolden(im, ranks, defaultMPI(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	merged := make(map[string]Experiment)
	for start := 0; start < plan.Total(); start += 3 {
		cfg := base
		cfg.Entries = plan.Range(start, start+3)
		cfg.Golden = golden // leases after the first reuse the reference run
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Experiments) != len(cfg.Entries) {
			t.Fatalf("entries [%d,%d): ran %d experiments, want %d",
				start, start+3, len(res.Experiments), len(cfg.Entries))
		}
		for _, e := range res.Experiments {
			merged[e.ID()] = e
		}
	}
	if len(merged) != len(full.Experiments) {
		t.Fatalf("entry windows ran %d experiments, full run %d", len(merged), len(full.Experiments))
	}
	for _, want := range full.Experiments {
		got := merged[want.ID()]
		if got != want {
			t.Errorf("experiment %s differs under Entries+Golden:\nlease: %+v\nfull:  %+v",
				want.ID(), got, want)
		}
	}

	// Shard/NumShards filter whichever entry list is in force: shard 1
	// of 2 over five entries is the second and the fourth.
	cfg := base
	cfg.Entries = plan.Range(1, 6)
	cfg.Shard, cfg.NumShards = 1, 2
	cfg.Golden = golden
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Experiments) != 2 || res.Experiments[0].ID() != plan.Entry(2).ID() || res.Experiments[1].ID() != plan.Entry(4).ID() {
		t.Errorf("shard 1/2 of entries [1,6) ran %+v, want plan entries 2 and 4", res.Experiments)
	}
	cfg = base
	cfg.Entries = []PlanEntry{{Region: RegionText, Index: 0}}
	if _, err := Run(cfg); err == nil {
		t.Error("an entry outside the plan's regions must be rejected")
	}
	cfg = base
	cfg.Entries = []PlanEntry{{Region: RegionRegularReg, Index: 99}}
	if _, err := Run(cfg); err == nil {
		t.Error("an entry index outside the plan must be rejected")
	}
}
