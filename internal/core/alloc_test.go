package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"mpifault/internal/apps"
	"mpifault/internal/cluster"
)

// TestRestoredJobAllocation is the allocation gate of the paged guest
// memory and the recycled inboxes: a 16-rank minicam job restored from a
// mid-run checkpoint and run to completion — one experiment of the
// benchmark's msg_comm16 workload without its fault — must allocate less
// than a quarter of the ≈ 9.7 MB it did when every restored rank zeroed a
// 256 KiB stack, copied its grown heap, BSS and data on their first store
// and got a fresh 96 KiB inbox.
func TestRestoredJobAllocation(t *testing.T) {
	a, err := apps.Get("minicam")
	if err != nil {
		t.Fatal(err)
	}
	build := a.Default
	build.Ranks, build.Scale = 16, 16
	im, err := a.Build(build)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{Image: im, Ranks: 16,
		CheckpointInterval: DefaultCheckpointInterval}
	golden, err := runGolden(cfg, defaultMPI(), 30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := golden.Result.Snapshots
	if len(snaps) == 0 {
		t.Fatal("no checkpoints captured")
	}
	job := cluster.Job{Image: im, Size: cfg.Ranks, WallLimit: 30 * time.Second, Restore: snaps[len(snaps)/2]}
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res := cluster.Run(job)
		runtime.ReadMemStats(&after)
		if res.FailureSummary() != "" || !bytes.Equal(res.CanonicalOutput(), golden.Output) {
			t.Fatalf("restored job diverged from the golden run: %s", res.FailureSummary())
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // the first job fills the inbox pool, as the first of a campaign does
	// Best of four: under the race detector sync.Pool drops a quarter of
	// the inboxes handed back, at random.
	got := run()
	for i := 0; i < 3; i++ {
		got = min(got, run())
	}
	const limit = 9_700_000 / 4
	if got > limit {
		t.Errorf("restored 16-rank job allocated %d bytes, want < %d", got, limit)
	}
	t.Logf("restored 16-rank job allocated %d bytes", got)
}

// TestMessageTablesAreLazy: the per-sender byte tables a message address
// is resolved against are built by the first message experiment.  A
// campaign without one — the one-experiment run every benchmark workload's
// set-up time and RSS are measured on — builds neither.
func TestMessageTablesAreLazy(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	cfg := Config{Image: im, Ranks: ranks, Injections: 2, Seed: 5,
		Regions: []Region{RegionRegularReg}, CheckpointInterval: DefaultCheckpointInterval}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	golden := res.Golden
	cfg.Golden = golden
	if len(golden.Result.Snapshots) == 0 {
		t.Fatal("no checkpoints captured")
	}
	if golden.recvFrom != nil || golden.pulled != nil {
		t.Errorf("a campaign with no message experiment built the message tables")
	}
	cfg.Regions = []Region{RegionMessage}
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(golden.recvFrom) != ranks || len(golden.pulled) != len(golden.Result.Snapshots) {
		t.Errorf("a message campaign resolved its addresses without the tables")
	}
	for r, from := range golden.recvFrom {
		var sum uint64
		for _, n := range from {
			sum += n
		}
		if sum != golden.RecvBytes[r] {
			t.Errorf("rank %d: per-sender bytes add up to %d, RecvBytes is %d", r, sum, golden.RecvBytes[r])
		}
	}
}
