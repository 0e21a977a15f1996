package core

import (
	"time"

	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// testArm returns a campaign context for cfg's plan, as Run builds one,
// with its golden run and, when cfg.CheckpointInterval is set, that run's
// checkpoints.
func testArm(cfg *Config, golden *Golden) *campaignCtx {
	cfg.Golden = golden
	c, _ := newCampaignCtx(cfg, newCampaignMeters(cfg.Metrics), nil) // handed a Golden, it cannot fail
	return c
}

// runArm runs every entry of cfg's plan through c, in plan order, on one
// thread.
func runArm(c *campaignCtx, cfg *Config) *Result {
	contract := Contract{Regions: cfg.Regions, Injections: cfg.Injections}
	ran := make(map[string]Experiment)
	var sc expScratch
	for _, pe := range (Plan{Regions: cfg.Regions, Injections: cfg.Injections}).Range(0, len(cfg.Regions)*cfg.Injections) {
		e := Experiment{Region: pe.Region, Index: pe.Index}
		c.base.DeriveInto(&sc.r, uint64(e.Region), uint64(e.Index))
		runOne(c, &e, &sc)
		ran[e.ID()] = e
	}
	res, _ := contract.Assemble(ran) // every entry ran
	res.Golden, res.Solo = c.golden, c.solo.stats()
	if !cfg.KeepExperiments {
		res.Experiments = nil
	}
	return res
}

// testGolden is runGolden at the settings the arms above assume.
func testGolden(cfg *Config) (*Golden, error) {
	return runGolden(cfg, mpi.Config{}, 30*time.Second, nil)
}

// SoloDifferential runs every entry of cfg's plan twice on one thread —
// through the solo-first path, whose fallbacks run their peers as ghosts,
// and as an all-live whole job directly (runOne with wholeJobs set) —
// against one golden run and, when cfg.CheckpointInterval is set, one
// checkpoint set.  Observers (cfg.Forensics, cfg.TraceDiff) ride both arms.
func SoloDifferential(cfg Config) (solo, whole *Result, err error) {
	golden, err := testGolden(&cfg)
	if err != nil {
		return nil, nil, err
	}
	ref := testArm(&cfg, golden)
	ref.wholeJobs = true
	return runArm(testArm(&cfg, golden), &cfg), runArm(ref, &cfg), nil
}

// RunBuilt is Run with every machine it builds — the golden run's, its
// experiments' and the read index's replays — shown to built before it
// runs.
func RunBuilt(cfg Config, built func(*vm.Machine)) (*Result, error) { return run(cfg, built) }

// MachineInstrs runs every entry of cfg's plan as SoloDifferential's
// solo-first arm does, with telemetry on, and returns the instructions
// the campaign's machines executed — each one's count at its end less its
// count when built, read off the machines themselves, the read index's
// replays included — beside the retired-instructions counter, the
// instructions skipped and the read index's own counter.
func MachineInstrs(cfg Config) (res *Result, executed, retired, skipped, indexed uint64, err error) {
	golden, err := testGolden(&cfg)
	if err != nil {
		return nil, 0, 0, 0, 0, err
	}
	cfg.Metrics = telemetry.New()
	c := testArm(&cfg, golden)
	type built struct {
		m    *vm.Machine
		from uint64
	}
	var machines []built
	c.built = func(m *vm.Machine) { machines = append(machines, built{m, m.Instrs}) }
	res = runArm(c, &cfg)
	for _, b := range machines {
		executed += b.m.Instrs - b.from
	}
	return res, executed, cfg.Metrics.Counter(telemetry.MetricInstrsRetired).Value(), c.skipped.Load(),
		cfg.Metrics.Counter(telemetry.MetricReadIndexInstrs).Value(), nil
}
