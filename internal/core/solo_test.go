package core

import (
	"sync"
	"testing"
	"time"

	"mpifault/internal/cluster"
	"mpifault/internal/vm"
)

// TestSoloFromEveryStartOnSharedTapes replays every rank alone, fault-free,
// from t=0 against the golden run's tape and from every snapshot of the
// capture pass against that pass's: each must run to the golden rank's
// clean exit, at its instruction count, with the whole tape matched.  Eight
// goroutines share the tapes and snapshots the way campaign workers do, so
// under -race this is also the check that a replay only reads them.
func TestSoloFromEveryStartOnSharedTapes(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	cfg := Config{Image: im, Ranks: ranks, WallLimit: 30 * time.Second,
		CheckpointInterval: DefaultCheckpointInterval, MaxCheckpoints: 8}
	golden, err := RunGolden(im, ranks, cfg.MPIConfig, cfg.WallLimit)
	if err != nil {
		t.Fatal(err)
	}
	ckpts := golden.checkpoints(&cfg, newCampaignMeters(nil))
	if ckpts.Len() == 0 {
		t.Fatal("no checkpoints captured")
	}

	type start struct {
		snap *cluster.Snapshot // nil: t=0
		rank int
	}
	var starts []start
	for r := 0; r < ranks; r++ {
		starts = append(starts, start{nil, r})
		for _, s := range ckpts.snaps {
			if s.RankLive(r) {
				starts = append(starts, start{s, r})
			}
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Interleaved, so each tape and snapshot is replayed by several
			// goroutines at once.
			for i := w; i < len(starts); i += workers {
				st := starts[i]
				job := cluster.Job{Image: im, Size: ranks, Budget: golden.Instrs[st.rank] + 1, Restore: st.snap}
				tape := golden.tapes[st.rank]
				if st.snap != nil {
					tape = ckpts.tapes[st.rank]
				}
				res := cluster.RunSolo(job, st.rank, tape)
				if res.Trap == nil || res.Trap.Kind != vm.TrapExit || res.Instrs != golden.Instrs[st.rank] {
					t.Errorf("rank %d from %v: %v after %d instructions, want a verified exit after %d",
						st.rank, st.snap != nil, res.Trap, res.Instrs, golden.Instrs[st.rank])
				}
			}
		}(w)
	}
	wg.Wait()
}
