package core

import (
	"time"

	"mpifault/internal/rng"
)

// SoloDifferential runs every entry of cfg's plan twice on one thread —
// through the solo-first path, and as a whole job directly (runOne with
// wholeJobs set, what a fallback executes) — against one golden run and,
// when cfg.CheckpointInterval is set, one checkpoint set.  Observers
// (cfg.Forensics, cfg.TraceDiff) ride both arms.
func SoloDifferential(cfg Config) (solo, whole *Result, err error) {
	cfg.WallLimit = 30 * time.Second
	cfg.MaxCheckpoints = DefaultMaxCheckpoints
	golden, err := runGolden(&cfg)
	if err != nil {
		return nil, nil, err
	}
	newCtx := func() *campaignCtx {
		return &campaignCtx{
			cfg: &cfg, golden: golden, dict: NewDictionary(cfg.Image),
			budget: 4 * golden.MaxInstrs(), base: rng.New(cfg.Seed), met: newCampaignMeters(nil),
		}
	}
	arms := [2]*campaignCtx{newCtx(), newCtx()}
	arms[1].wholeJobs = true
	if cfg.CheckpointInterval > 0 {
		arms[0].snaps, arms[1].snaps = golden.Result.Snapshots, golden.Result.Snapshots
	}
	plan := Plan{Regions: cfg.Regions, Injections: cfg.Injections}
	var out [2]*Result
	for i, c := range arms {
		var ran []Experiment
		var sc expScratch
		for _, pe := range plan.Range(0, plan.Total()) {
			e := Experiment{Region: pe.Region, Index: pe.Index}
			c.base.DeriveInto(&sc.r, uint64(e.Region), uint64(e.Index))
			runOne(c, &e, &sc)
			ran = append(ran, e)
		}
		out[i] = &Result{Golden: golden, Solo: c.solo.stats()}
		out[i].summarize(&cfg, ran)
	}
	return out[0], out[1], nil
}
