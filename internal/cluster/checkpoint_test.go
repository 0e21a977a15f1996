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
	"mpifault/internal/telemetry"
)

// A job's snapshots are tested as what they are: each rank's state at its
// own clocks, in the run its tapes record, which taking them leaves as it
// is.

// snapshotting runs job twice with tapes and metrics, with spec's
// snapshots and without, requires the two runs to be one — the same
// verdict, outputs, tapes, need points and schedule — and returns the one
// that took them.
func snapshotting(t *testing.T, job Job, spec CheckpointSpec) *Result {
	t.Helper()
	run := func(spec CheckpointSpec) (*Result, telemetry.Snapshot) {
		reg := telemetry.New()
		job.RecordTapes, job.Checkpoints, job.Metrics = true, spec, reg
		return Run(job), reg.Snapshot()
	}
	res, metrics := run(spec)
	plain, plainMetrics := run(CheckpointSpec{})
	if outcome(res) != outcome(plain) || !bytes.Equal(res.CanonicalOutput(), plain.CanonicalOutput()) {
		t.Fatalf("taking snapshots changed the run:\n%s--- without:\n%s", outcome(res), outcome(plain))
	}
	if !reflect.DeepEqual(res.Tapes, plain.Tapes) || !reflect.DeepEqual(res.Needs, plain.Needs) {
		t.Fatal("taking snapshots changed the recorded tapes")
	}
	if !reflect.DeepEqual(metrics, plainMetrics) {
		t.Fatalf("taking snapshots changed the schedule:\n%+v\n--- without:\n%+v", metrics, plainMetrics)
	}
	checkClocks(t, res, spec)
	return res
}

// checkClocks holds every rank's snapshots to the rule: they are at the
// multiples of one spacing, the interval doubled as often as the cap
// made it, from the first up to the rank's end with none left out; and
// each stands after exactly the tape events its rank had recorded by then.
func checkClocks(t *testing.T, res *Result, spec CheckpointSpec) {
	t.Helper()
	for r, snaps := range res.Snapshots {
		end := res.Ranks[r].Instrs
		if len(snaps) == 0 {
			if end > spec.Interval {
				t.Errorf("rank %d ran %d instructions and took no snapshot at interval %d", r, end, spec.Interval)
			}
			continue
		}
		spacing := snaps[0].Instrs()
		if spacing%spec.Interval != 0 || spacing/spec.Interval&(spacing/spec.Interval-1) != 0 {
			t.Errorf("rank %d's first snapshot is at %d, not at the interval %d doubled", r, spacing, spec.Interval)
		}
		if spec.Max > 0 && len(snaps) > spec.Max {
			t.Errorf("rank %d kept %d snapshots, over the cap %d", r, len(snaps), spec.Max)
		}
		if next := uint64(len(snaps)+1) * spacing; next < end {
			t.Errorf("rank %d's %d snapshots %d apart stop before its clock %d reached %d", r, len(snaps), spacing, end, next)
		}
		tape := res.Tapes[r]
		for k := range snaps {
			s := &snaps[k]
			if s.Instrs() != uint64(k+1)*spacing {
				t.Fatalf("rank %d's snapshot %d is at clock %d, want %d", r, k, s.Instrs(), uint64(k+1)*spacing)
			}
			pos := 0
			for pos < len(tape) && tape[pos].Instrs < s.Instrs() {
				pos++
			}
			if s.TapePos != pos {
				t.Errorf("rank %d's snapshot at clock %d stands after %d tape events, want the %d recorded before it",
					r, s.Instrs(), s.TapePos, pos)
			}
		}
	}
}

// checkRestores restores every rank from each of its snapshots, alone
// against its tape and as the one rank that executes in a job of ghosts
// (haunted): every run must end as res did.
func checkRestores(t *testing.T, job Job, res *Result) {
	t.Helper()
	job.Checkpoints = CheckpointSpec{}
	for r, snaps := range res.Snapshots {
		for k := range snaps {
			solo := job
			solo.Budget = res.Ranks[r].Instrs + 1
			got := RunSolo(solo, r, res.Tapes[r], &snaps[k])
			if got.Trap == nil || *got.Trap != *res.Ranks[r].Trap || got.Instrs != res.Ranks[r].Instrs || got.Pos != len(res.Tapes[r]) {
				t.Fatalf("rank %d alone from its snapshot %d ends %v at %d, event %d; the recorded run %v at %d, event %d",
					r, k, got.Trap, got.Instrs, got.Pos, res.Ranks[r].Trap, res.Ranks[r].Instrs, len(res.Tapes[r]))
			}
			haunted(t, job, r, res, &snaps[k])
		}
	}
}

// TestSnapshotsAtOwnClocks: the three applications at 8 and 16 ranks take
// their snapshots at their own clocks, without changing the run.
func TestSnapshotsAtOwnClocks(t *testing.T) {
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
		res := snapshotting(t, Job{Image: im, Size: tc.ranks}, CheckpointSpec{Interval: 12_500, Max: 32})
		if res.FailureSummary() != "" {
			t.Fatalf("%s/%d failed:\n%s", tc.app, tc.ranks, outcome(res))
		}
		for r, snaps := range res.Snapshots {
			if len(snaps) < 2 {
				t.Fatalf("%s/%d: rank %d took %d snapshots", tc.app, tc.ranks, r, len(snaps))
			}
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

// TestSnapshotRule drives the rule through schedules in which the ranks'
// clocks part ways.  Each job must be the one it is without snapshots,
// every snapshot at its rank's clocks, and every rank restored from any of
// them must end as it did.
func TestSnapshotRule(t *testing.T) {
	for _, tc := range []struct {
		name  string
		size  int
		depth int
		spec  CheckpointSpec
		body  func(m *asm.Module, f *asm.Func)
		// shape says whether the snapshots show the shape was met.
		shape func(res *Result) bool
	}{
		{
			// Rank 1's clock falls ever further behind rank 0's, by more per
			// exchange than it computes between two: rank 0 snapshots many
			// times in the span rank 1 snapshots once.
			name: "skew beyond the exchange period", size: 2, spec: CheckpointSpec{Interval: 4000},
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				pingPong(m, f, 40, 300, 2)
				f.CallArgs("MPI_Finalize")
			},
			shape: func(res *Result) bool {
				return len(res.Snapshots[0]) >= 5 && len(res.Snapshots[1]) < len(res.Snapshots[0])/2
			},
		},
		{
			// Rank 0 streams packets into the one-slot queue of rank 1,
			// which computes first: rank 1 snapshots before its first pull,
			// with the packets still in flight, and rank 0 only once its
			// sends are through.
			name: "sender blocked on a computing receiver's full queue", size: 2, depth: 1,
			spec: CheckpointSpec{Interval: 3000},
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
			shape: func(res *Result) bool {
				s0, s1 := res.Snapshots[0], res.Snapshots[1]
				return len(s0) > 0 && len(s1) > 0 && s1[0].TapePos <= firstEvent(t, res.Tapes[1], func(i int) bool { return res.Tapes[1][i].Kind == mpi.TapeRecv }) &&
					s0[0].TapePos > lastEvent(t, res.Tapes[0], dataTo(1))
			},
		},
		{
			// Rank 2 exits after a few hundred instructions: it takes no
			// snapshot, and the others take theirs after its end.
			name: "a rank exits before its peers' first snapshot", size: 3, spec: CheckpointSpec{Interval: 3000},
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
			shape: func(res *Result) bool {
				return len(res.Snapshots[2]) == 0 && res.Ranks[2].Instrs < 1000 &&
					len(res.Snapshots[0]) >= 3 && len(res.Snapshots[1]) >= 3
			},
		},
		{
			// No syscall after the first spacing but the exit: the ranks
			// snapshot in the middle of the computation.
			name: "no syscall after the threshold", size: 2, spec: CheckpointSpec{Interval: 3000},
			body: func(m *asm.Module, f *asm.Func) {
				initRank(m, f)
				spin(f, 4000)
			},
			shape: func(res *Result) bool {
				for r, snaps := range res.Snapshots {
					if len(snaps) < 3 || snaps[0].TapePos != len(res.Tapes[r]) {
						return false
					}
				}
				return true
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			im := buildProgram(t, tc.body)
			job := Job{Image: im, Size: tc.size, MPIConfig: mpi.Config{QueueDepth: tc.depth}, Budget: 1_000_000}
			res := snapshotting(t, job, tc.spec)
			mustExitClean(t, res)
			if !tc.shape(res) {
				var clocks [][]uint64
				for _, snaps := range res.Snapshots {
					var at []uint64
					for k := range snaps {
						at = append(at, snaps[k].Instrs())
					}
					clocks = append(clocks, at)
				}
				t.Errorf("the snapshots, at clocks %v, are not of the shape under test", clocks)
			}
			checkRestores(t, job, res)
		})
	}
}

// TestSnapshotCap: a rank that runs long enough for four times the cap
// keeps no more than the cap, at the multiples of a doubled spacing, the
// last one in its run's last quarter.
func TestSnapshotCap(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		pingPong(m, f, 64, 330, 330) // about 1000 instructions a round
		f.CallArgs("MPI_Finalize")
	})
	const max = 8
	job := Job{Image: im, Size: 2, Budget: 1_000_000}
	uncapped := snapshotting(t, job, CheckpointSpec{Interval: 2000})
	res := snapshotting(t, job, CheckpointSpec{Interval: 2000, Max: max})
	mustExitClean(t, res)
	for r, snaps := range res.Snapshots {
		if n := len(uncapped.Snapshots[r]); n < 3*max {
			t.Fatalf("rank %d takes %d snapshots uncapped: too short to test a cap of %d", r, n, max)
		}
		n := len(snaps)
		if n > max || n < max/2 {
			t.Fatalf("rank %d kept %d snapshots, want between %d and the cap %d", r, n, max/2, max)
		}
		if spacing := snaps[0].Instrs(); spacing < 4*2000 {
			t.Errorf("rank %d's spacing is %d after its run outgrew the cap twice", r, spacing)
		}
		if last, total := snaps[n-1].Instrs(), res.Ranks[r].Instrs; last < total*3/4 {
			t.Errorf("rank %d's last snapshot is at %d of %d instructions, want it past three quarters", r, last, total)
		}
	}
	checkRestores(t, job, res)
}
