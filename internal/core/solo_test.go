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
// converged at the rank's next snapshot.  Eight
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
	type start struct {
		snap *cluster.RankSnapshot // nil: t=0
		rank int
	}
	var starts []start
	for r := 0; r < ranks; r++ {
		if len(snaps[r]) == 0 {
			t.Fatalf("rank %d took no snapshot", r)
		}
		starts = append(starts, start{nil, r})
		for k := range snaps[r] {
			starts = append(starts, start{&snaps[r][k], r})
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
				job := cluster.Job{Image: im, Size: ranks, Budget: golden.Instrs[st.rank] + 1}
				res := cluster.RunSolo(job, st.rank, golden.tapes[st.rank], st.snap)
				if res.Trap == nil || res.Trap.Kind != vm.TrapExit || res.Instrs != golden.Instrs[st.rank] {
					t.Errorf("rank %d from %v: %v after %d instructions, want a verified exit after %d",
						st.rank, st.snap != nil, res.Trap, res.Instrs, golden.Instrs[st.rank])
				}
				var end earlyEnd
				job.Setup = func(_ int, m *vm.Machine, p *mpi.Proc) { c.converge(m, p, st.rank, &end) }
				res = cluster.RunSolo(job, st.rank, golden.tapes[st.rank], st.snap)
				var start uint64
				if st.snap != nil {
					start = st.snap.Instrs()
				}
				want := golden.Instrs[st.rank] // no snapshot left to converge at: the exit
				for k := range snaps[st.rank] {
					if s := &snaps[st.rank][k]; s.Instrs() > start {
						want = s.Instrs()
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
	k := len(c.snaps[rank]) - 1
	if k < 0 {
		t.Fatal("no snapshot of rank 0")
	}
	trigger := c.snaps[rank][k].Instrs() + forensicsDepth/4
	lastPCs := func(snap *cluster.RankSnapshot) []uint32 {
		rec := vm.NewFlightRecorder(forensicsDepth)
		job := cluster.Job{Image: im, Size: ranks, Budget: golden.Instrs[rank] + 1,
			Tracer: rec, TraceRank: rank,
			Setup: func(r int, m *vm.Machine, p *mpi.Proc) {
				if r == rank {
					m.TriggerAt = trigger
					m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.PC = 0; return nil } // nothing is mapped there
				}
			}}
		res := cluster.RunSolo(job, rank, golden.tapes[rank], snap)
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
	var snap *cluster.RankSnapshot
	if start >= 0 {
		snap = &c.snaps[rank][start]
	}
	if got := lastPCs(snap); !reflect.DeepEqual(got, want) {
		t.Errorf("restored from snapshot %d the flight record is\n%x\nfrom t=0\n%x", start, got, want)
	}
}
