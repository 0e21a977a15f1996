package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"mpifault/internal/abi"
	"mpifault/internal/apps"
	"mpifault/internal/asm"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
)

// A job's snapshots are tested as what they are: cuts of the run its tapes
// record.

// checkCuts holds every snapshot of res against res.Tapes: a cut is
// consistent when no rank had pulled a packet its sender had not yet sent,
// and complete when each queue holds exactly what was sent and not pulled,
// in the order the rank went on to pull it.
func checkCuts(t *testing.T, res *Result) {
	t.Helper()
	n := len(res.Tapes)
	for k, s := range res.Snapshots {
		pos := func(r int) int { return s.Ranks[r].TapePos }
		for r := range res.Tapes {
			if s.Ranks[r].Finished && pos(r) != len(res.Tapes[r]) {
				t.Fatalf("snapshot %d: rank %d had finished at tape position %d of %d", k, r, pos(r), len(res.Tapes[r]))
			}
		}
		sent := make([][][]byte, n*n) // [src*n+dst], in src's program order
		for src, tape := range res.Tapes {
			for _, ev := range tape[:pos(src)] {
				if ev.Kind == mpi.TapeSend {
					sent[src*n+int(ev.Arg)] = append(sent[src*n+int(ev.Arg)], ev.Data)
				}
			}
		}
		for d, tape := range res.Tapes {
			for i, ev := range tape[:pos(d)] {
				if ev.Kind != mpi.TapeRecv {
					continue
				}
				q := &sent[mpi.RawSource(ev.Data)*n+d]
				if len(*q) == 0 || !bytes.Equal((*q)[0], ev.Data) {
					t.Fatalf("snapshot %d: rank %d's event %d pulls a packet rank %d had not sent at its cut",
						k, d, i, mpi.RawSource(ev.Data))
				}
				*q = (*q)[1:]
			}
			var later [][]byte // what d pulls after the cut
			for _, ev := range tape[pos(d):] {
				if ev.Kind == mpi.TapeRecv {
					later = append(later, ev.Data)
				}
			}
			inFlight := 0
			for src := 0; src < n; src++ {
				inFlight += len(sent[src*n+d])
			}
			if len(s.Queues[d]) != inFlight || len(later) < inFlight ||
				inFlight > 0 && !reflect.DeepEqual(s.Queues[d], later[:inFlight]) {
				t.Fatalf("snapshot %d: rank %d's queue holds %d packets; %d were in flight to it, of the %d it pulls later",
					k, d, len(s.Queues[d]), inFlight, len(later))
			}
		}
	}
}

// checkRestores runs the job again from each snapshot of res: every one
// must end as res did, rank for rank.
func checkRestores(t *testing.T, job Job, res *Result) {
	t.Helper()
	job.Checkpoints = CheckpointSpec{}
	for k, s := range res.Snapshots {
		job.Restore = s
		got := Run(job)
		if outcome(got) != outcome(res) || !bytes.Equal(got.CanonicalOutput(), res.CanonicalOutput()) {
			t.Fatalf("restored from snapshot %d:\n%s--- from t=0:\n%s", k, outcome(got), outcome(res))
		}
	}
}

// TestSnapshotsAreConsistentCuts: every snapshot the three applications
// take of themselves, at 8 and 16 ranks.
func TestSnapshotsAreConsistentCuts(t *testing.T) {
	for _, tc := range []struct {
		app   string
		ranks int
		scale int32 // 0: the application's default
	}{
		{"wavetoy", 8, 0}, {"minimd", 8, 0}, {"minicam", 8, 0},
		{"wavetoy", 16, 0}, {"minimd", 16, 48}, {"minicam", 16, 16},
	} {
		a, err := apps.Get(tc.app)
		if err != nil {
			t.Fatal(err)
		}
		build := a.Default
		build.Ranks = tc.ranks
		if tc.scale > 0 {
			build.Scale = tc.scale
		}
		im, err := a.Build(build)
		if err != nil {
			t.Fatal(err)
		}
		res := Run(Job{Image: im, Size: tc.ranks, RecordTapes: true, Checkpoints: CheckpointSpec{Interval: 12_500, Max: 32}})
		if res.FailureSummary() != "" {
			t.Fatalf("%s/%d failed:\n%s", tc.app, tc.ranks, outcome(res))
		}
		if len(res.Snapshots) < 8 {
			t.Fatalf("%s/%d: %d snapshots", tc.app, tc.ranks, len(res.Snapshots))
		}
		checkCuts(t, res)
		if plain := Run(Job{Image: im, Size: tc.ranks}); outcome(plain) != outcome(res) ||
			!bytes.Equal(plain.CanonicalOutput(), res.CanonicalOutput()) {
			t.Fatalf("%s/%d: taking snapshots changed the run:\n%s--- without:\n%s", tc.app, tc.ranks, outcome(res), outcome(plain))
		}
	}
}

// pingPong emits rounds exchanges between ranks 0 and 1, rank 0 computing
// work0 loop iterations before each and rank 1 work1.
func pingPong(m *asm.Module, f *asm.Func, rounds, work0, work1 int32) {
	m.BSS("round", 4) // calls clobber every register
	loop, done := f.NewLabel(), f.NewLabel()
	f.Label(loop)
	f.LdSym(isa.R0, "round", 0)
	f.Cmpi(isa.R0, rounds)
	f.Bge(done)
	f.Addi(isa.R0, isa.R0, 1)
	f.StSym("round", 0, isa.R0)
	onRank(f, 0, func() { spin(f, work0); send(f, 1); recv(f, 1) })
	onRank(f, 1, func() { spin(f, work1); recv(f, 0); send(f, 0) })
	f.Jmp(loop)
	f.Label(done)
}

// TestSnapshotRule drives the parking rule through the shapes that decide
// it.  Each job must end as it does without snapshots, every snapshot must
// be a consistent cut, and a job restored from any must end the same.
func TestSnapshotRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		depth int
		spec  CheckpointSpec
		want  int // snapshots at least
		body  func(m *asm.Module, f *asm.Func)
		// first says whether the first snapshot shows the shape was met.
		first func(s *Snapshot) bool
	}{
		{
			// Rank 1's clock falls ever further behind rank 0's, by more per
			// exchange than it computes between two: it never gets one
			// spacing on by itself, and parks where rank 0's parking holds it.
			name: "skew beyond the exchange period", size: 2, spec: CheckpointSpec{Interval: 4000}, want: 5,
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				pingPong(m, f, 40, 300, 2)
				f.CallArgs("MPI_Finalize")
			},
			first: func(s *Snapshot) bool { return s.RankInstrs(0) >= 4000 && s.RankInstrs(1) < 400 },
		},
		{
			// Rank 0 streams packets into a one-slot queue whose owner is
			// parked mid-computation, and is itself what the receiver waits
			// for later.  The blocked sender gets the receiver released; the
			// queue needs no slack.
			name: "sender blocked on a parked receiver's full queue", size: 2, depth: 1,
			spec: CheckpointSpec{Interval: 3000}, want: 2,
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				onRank(f, 0, func() {
					for i := 0; i < 6; i++ {
						send(f, 1)
					}
					spin(f, 3000)
					recv(f, 1)
				})
				onRank(f, 1, func() {
					spin(f, 3000)
					for i := 0; i < 6; i++ {
						recv(f, 0)
					}
					send(f, 0)
				})
				f.CallArgs("MPI_Finalize")
			},
			// Rank 0 is held inside its second send until rank 1 pulls.
			first: func(s *Snapshot) bool { return s.RankInstrs(0) < 3000 && len(s.Queues[1]) == 1 },
		},
		{
			// Rank 0 parks in the middle of its first loop; rank 1 then
			// wakes rank 2, which runs to its exit while rank 0 is held.  The
			// snapshot waits for no finished rank and carries its end.
			name: "a rank exits while another is parked", size: 3, spec: CheckpointSpec{Interval: 3000}, want: 3,
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				onRank(f, 2, func() {
					recv(f, 1)
					spin(f, 100)
					f.Movi(isa.R0, 0)
					f.Sys(abi.SysExit)
				})
				onRank(f, 0, func() { spin(f, 800) })
				onRank(f, 1, func() { spin(f, 700); send(f, 2) })
				pingPong(m, f, 6, 700, 500)
			},
			first: func(s *Snapshot) bool {
				return !s.RankLive(2) && s.RankInstrs(2) < 1000 && s.RankInstrs(0) == 3000 && s.RankInstrs(1) == 3000
			},
		},
		{
			// No syscall after the first spacing but the exit: ranks park
			// where their machines stop, in the middle of the computation.
			name: "no syscall after the threshold", size: 2, spec: CheckpointSpec{Interval: 3000}, want: 3,
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				spin(f, 4000)
			},
			first: func(s *Snapshot) bool { return s.RankInstrs(0) == 3000 && s.RankInstrs(1) == 3000 },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im := buildProgram(t, tc.body)
			job := Job{Image: im, Size: tc.size, MPIConfig: mpi.Config{QueueDepth: tc.depth},
				RecordTapes: true, Checkpoints: tc.spec}
			res := repeatVerdict(t, func() Job { return job })
			if plain := Run(Job{Image: im, Size: tc.size, MPIConfig: job.MPIConfig}); outcome(plain) != outcome(res) {
				t.Fatalf("taking snapshots changed the run:\n%s--- without:\n%s", outcome(res), outcome(plain))
			}
			if res.FailureSummary() != "" {
				t.Fatalf("the job failed:\n%s", outcome(res))
			}
			if len(res.Snapshots) < tc.want {
				t.Fatalf("%d snapshots, want at least %d", len(res.Snapshots), tc.want)
			}
			if s := res.Snapshots[0]; !tc.first(s) {
				t.Errorf("the first snapshot, at clocks %d and %d with %d and %d packets queued, is not of the shape under test",
					s.RankInstrs(0), s.RankInstrs(1), len(s.Queues[0]), len(s.Queues[1]))
			}
			checkCuts(t, res)
			checkRestores(t, job, res)
		})
	}
}

// TestSnapshotCap: a run long enough for four times the cap keeps no more
// than the cap, evenly spread, the last one in the run's last quarter.
func TestSnapshotCap(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		pingPong(m, f, 64, 330, 330) // about 1000 instructions a round
		f.CallArgs("MPI_Finalize")
	})
	const max = 8
	job := Job{Image: im, Size: 2, RecordTapes: true, Checkpoints: CheckpointSpec{Interval: 2000, Max: max}}
	res := Run(job)
	mustExitClean(t, res)
	total := res.Ranks[0].Instrs
	if uncapped := Run(Job{Image: im, Size: 2, Checkpoints: CheckpointSpec{Interval: 2000}}); len(uncapped.Snapshots) < 3*max {
		t.Fatalf("the run takes %d snapshots uncapped: too short to test a cap of %d", len(uncapped.Snapshots), max)
	}
	n := len(res.Snapshots)
	if n > max || n < max/2 {
		t.Fatalf("%d snapshots kept, want between %d and the cap %d", n, max/2, max)
	}
	var at []uint64
	for _, s := range res.Snapshots {
		at = append(at, s.RankInstrs(0))
	}
	if last := at[n-1]; last < total*3/4 {
		t.Errorf("the last snapshot is at %d of %d instructions, want it past three quarters: %v", last, total, at)
	}
	// Evenly: no gap, the run's two ends included, is over twice the mean.
	mean := total / uint64(n+1)
	prev := uint64(0)
	for _, clock := range append(at, total) {
		if clock-prev > 2*mean {
			t.Errorf("a gap of %d instructions among snapshots %v of a %d-instruction run (mean %d)", clock-prev, at, total, mean)
		}
		prev = clock
	}
	checkCuts(t, res)
	checkRestores(t, job, res)
}
