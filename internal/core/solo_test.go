package core

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// TestSoloFromEveryStartOnSharedTapes replays every rank alone, fault-free,
// against the golden run's tape, from t=0 and from every snapshot that run
// took: each must run to the golden rank's clean exit, at its instruction
// count, with the whole tape matched, and, checked for convergence, stop
// converged at the next snapshot that caught the rank live.  Eight
// goroutines share the tapes and snapshots the way campaign workers do, so
// under -race this is also the check that a replay and a convergence
// check only read them.
func TestSoloFromEveryStartOnSharedTapes(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	cfg := Config{Image: im, Ranks: ranks,
		CheckpointInterval: DefaultCheckpointInterval}
	golden, err := runGolden(&cfg, defaultMPI(), 30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	snaps := golden.Result.Snapshots
	if len(snaps) == 0 {
		t.Fatal("no checkpoints captured")
	}

	type start struct {
		snap *cluster.Snapshot // nil: t=0
		rank int
	}
	var starts []start
	for r := 0; r < ranks; r++ {
		starts = append(starts, start{nil, r})
		for _, s := range snaps {
			if s.RankLive(r) {
				starts = append(starts, start{s, r})
			}
		}
	}
	c := &campaignCtx{golden: golden, snaps: snaps}
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
				res := cluster.RunSolo(job, st.rank, golden.tapes[st.rank])
				if res.Trap == nil || res.Trap.Kind != vm.TrapExit || res.Instrs != golden.Instrs[st.rank] {
					t.Errorf("rank %d from %v: %v after %d instructions, want a verified exit after %d",
						st.rank, st.snap != nil, res.Trap, res.Instrs, golden.Instrs[st.rank])
				}
				var end earlyEnd
				job.Setup = func(_ int, m *vm.Machine, p *mpi.Proc) { c.converge(m, p, st.rank, &end) }
				res = cluster.RunSolo(job, st.rank, golden.tapes[st.rank])
				var start uint64
				if st.snap != nil {
					start = st.snap.RankInstrs(st.rank)
				}
				want := golden.Instrs[st.rank] // no snapshot left to converge at: the exit
				for _, s := range snaps {
					if s.RankLive(st.rank) && s.RankInstrs(st.rank) > start {
						want = s.RankInstrs(st.rank)
						break
					}
				}
				if end.converged != (want < golden.Instrs[st.rank]) || res.Instrs != want {
					t.Errorf("rank %d from %v: converged %v at %d, want a stop at %d", st.rank, st.snap != nil, end.converged, res.Instrs, want)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestStartPointKeepsTheFlightRecord: a fault fewer than forensicsDepth
// instructions past a snapshot, which traps at once, must leave the flight
// record a run from t=0 leaves — the start-point rule backs off to a
// snapshot the ring's depth before it.
func TestStartPointKeepsTheFlightRecord(t *testing.T) {
	im, ranks := buildApp(t, "wavetoy")
	cfg := Config{Image: im, Ranks: ranks,
		CheckpointInterval: DefaultCheckpointInterval}
	golden, err := runGolden(&cfg, defaultMPI(), 30*time.Second, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &campaignCtx{golden: golden, snaps: golden.Result.Snapshots}
	const rank = 0
	k := len(c.snaps) - 1
	for k >= 0 && !c.snaps[k].RankLive(rank) {
		k--
	}
	if k < 0 {
		t.Fatal("no snapshot with rank 0 live")
	}
	trigger := c.snaps[k].RankInstrs(rank) + forensicsDepth/4
	lastPCs := func(snap *cluster.Snapshot) []uint32 {
		rec := vm.NewFlightRecorder(forensicsDepth)
		job := cluster.Job{Image: im, Size: ranks, Budget: golden.Instrs[rank] + 1, Restore: snap,
			Tracer: rec, TraceRank: rank,
			Setup: func(r int, m *vm.Machine, p *mpi.Proc) {
				if r == rank {
					m.TriggerAt = trigger
					m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.PC = 0; return nil } // nothing is mapped there
				}
			}}
		res := cluster.RunSolo(job, rank, golden.tapes[rank])
		if res.Trap == nil || res.Trap.Kind == vm.TrapExit || res.Instrs != trigger {
			t.Fatalf("the fault did not trap at once: %v after %d instructions", res.Trap, res.Instrs)
		}
		return rec.LastPCs()
	}
	want := lastPCs(nil)
	start := c.indexForInstr(rank, trigger)
	if start >= k {
		t.Errorf("the trigger %d instructions past snapshot %d starts from snapshot %d", forensicsDepth/4, k, start)
	}
	var snap *cluster.Snapshot
	if start >= 0 {
		snap = c.snaps[start]
	}
	if got := lastPCs(snap); !reflect.DeepEqual(got, want) {
		t.Errorf("restored from snapshot %d the flight record is\n%x\nfrom t=0\n%x", start, got, want)
	}
}
