package cluster

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// The scheduler's verdicts are exact: each shape below ends the same way,
// at the same instruction on every rank, in every run.

// verdictRuns is how often each shape is repeated.
const verdictRuns = 20

// outcome renders everything of a Result a verdict consists of: the hang
// cause, and per rank how it ended and after how many instructions
// (omitted for the ranks in anyInstrs).
func outcome(res *Result, anyInstrs ...int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hang=%v %q first=%v\n", res.HangDetected, res.HangCause, res.FirstFailure())
	for r, rr := range res.Ranks {
		instrs := fmt.Sprint(rr.Instrs)
		for _, a := range anyInstrs {
			if a == r {
				instrs = "*"
			}
		}
		fmt.Fprintf(&b, "rank %d: reason=%d trap=%v instrs=%s\n", r, rr.Reason, rr.Trap, instrs)
	}
	return b.String()
}

// repeatVerdict runs the job verdictRuns times, requires every outcome to
// equal the first, and returns the first result.
func repeatVerdict(t *testing.T, job func() Job, anyInstrs ...int) *Result {
	t.Helper()
	first := Run(job())
	want := outcome(first, anyInstrs...)
	for i := 1; i < verdictRuns; i++ {
		if got := outcome(Run(job()), anyInstrs...); got != want {
			t.Fatalf("run %d differs from run 0:\n%s--- run 0:\n%s", i, got, want)
		}
	}
	return first
}

func wantHang(t *testing.T, res *Result, cause string) {
	t.Helper()
	if !res.HangDetected || res.HangCause != cause || res.FirstFailure() != nil {
		t.Fatalf("want a %q hang and no failure, got:\n%s", cause, outcome(res))
	}
}

func wantKilled(t *testing.T, res *Result, ranks ...int) {
	t.Helper()
	for _, r := range ranks {
		if tr := res.Ranks[r].Trap; tr == nil || tr.Kind != vm.TrapKilled {
			t.Errorf("rank %d: want it killed, got %v", r, tr)
		}
	}
}

// onRank emits body for the given rank only (R0 holds the caller's rank
// from the "myrank" cell).
func onRank(f *asm.Func, rank int32, body func()) {
	skip := f.NewLabel()
	f.LdSym(isa.R0, "myrank", 0)
	f.Cmpi(isa.R0, rank)
	f.Bne(skip)
	body()
	f.Label(skip)
}

// initRank emits MPI_Init and stores the rank in "myrank".
func initRank(m *asm.Module, f *asm.Func) {
	m.BSS("myrank", 4)
	m.BSS("buf", 64)
	f.CallArgs("MPI_Init")
	f.CallArgs("MPI_Comm_rank", asm.Imm(abi.CommWorld))
	f.StSym("myrank", 0, isa.R0)
}

// spin emits a loop of n iterations (three instructions each).
func spin(f *asm.Func, n int32) {
	loop, done := f.NewLabel(), f.NewLabel()
	f.Movi(isa.R4, 0)
	f.Label(loop)
	f.Cmpi(isa.R4, n)
	f.Bge(done)
	f.Addi(isa.R4, isa.R4, 1)
	f.Jmp(loop)
	f.Label(done)
}

func spinForever(f *asm.Func) {
	l := f.NewLabel()
	f.Label(l)
	f.Jmp(l)
}

func wildLoad(f *asm.Func) {
	f.Movi(isa.R1, 0x12) // unmapped
	f.Ld(isa.R2, isa.R1, 0)
}

func send(f *asm.Func, dst int32) {
	f.CallArgs("MPI_Send", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(dst), asm.Imm(5), asm.Imm(abi.CommWorld))
}

func recv(f *asm.Func, src int32) {
	f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
		asm.Imm(src), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Imm(0))
}

// TestVerdictAllBlocked: every rank waits for a message nobody sends.
func TestVerdictAllBlocked(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		f.LdSym(isa.R3, "myrank", 0)
		f.Xori(isa.R3, isa.R3, 1) // the neighbour
		f.CallArgs("MPI_Recv", asm.Sym("buf"), asm.Imm(1), asm.Imm(abi.DTInt32),
			asm.Reg(isa.R3), asm.Imm(5), asm.Imm(abi.CommWorld), asm.Imm(0))
		f.CallArgs("MPI_Finalize")
	})
	res := repeatVerdict(t, func() Job { return Job{Image: im, Size: 4} })
	wantHang(t, res, "distributed deadlock")
	wantKilled(t, res, 0, 1, 2, 3)
}

// TestVerdictPacketAtExitedRank: rank 1 exits without a word; rank 0's
// message sits in its queue for ever and rank 0 waits for the answer —
// the shape the watchdog needed 50 quiet ticks and World.Stuck for.
func TestVerdictPacketAtExitedRank(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() {
			send(f, 1)
			recv(f, 1)
		})
	})
	res := repeatVerdict(t, func() Job { return Job{Image: im, Size: 2} })
	wantHang(t, res, "distributed deadlock")
	wantKilled(t, res, 0)
	if tr := res.Ranks[1].Trap; tr == nil || tr.Kind != vm.TrapExit {
		t.Errorf("rank 1 should have exited, got %v", tr)
	}
}

// TestVerdictRunawayRank: rank 1 never stops computing; the budget is the
// verdict, at exactly the budget.
func TestVerdictRunawayRank(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 1, func() { spinForever(f) })
		f.CallArgs("MPI_Finalize")
	})
	const budget = 300_000
	res := repeatVerdict(t, func() Job { return Job{Image: im, Size: 4, Budget: budget} })
	wantHang(t, res, "instruction budget exceeded")
	if rr := res.Ranks[1]; rr.Reason != vm.StopBudget || rr.Instrs != budget {
		t.Errorf("rank 1: reason %d after %d instructions, want the budget at %d", rr.Reason, rr.Instrs, budget)
	}
	wantKilled(t, res, 0, 2, 3)
}

// TestVerdictWallLimit: the same runaway rank with no budget.  Only the
// wall-clock limit can end it, through Machine.Stop — so how far rank 1
// got is the one number here that depends on the host.
func TestVerdictWallLimit(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 1, func() { spinForever(f) })
		f.CallArgs("MPI_Finalize")
	})
	start := time.Now()
	res := repeatVerdict(t, func() Job {
		return Job{Image: im, Size: 4, WallLimit: 20 * time.Millisecond}
	}, 1)
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("%d runs at a 20 ms limit took %v", verdictRuns, d)
	}
	wantHang(t, res, "wall-clock limit")
	wantKilled(t, res, 0, 1, 2, 3)
}

// TestVerdictFullQueueOfExitedRank: rank 0 sends more than rank 1's queue
// holds, and rank 1 has exited.
func TestVerdictFullQueueOfExitedRank(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() {
			send(f, 1)
			send(f, 1)
			send(f, 1)
		})
	})
	res := repeatVerdict(t, func() Job {
		return Job{Image: im, Size: 2, MPIConfig: mpi.Config{QueueDepth: 2}}
	})
	wantHang(t, res, "distributed deadlock")
	wantKilled(t, res, 0)
}

// TestVerdictEarliestTrapWins: two ranks crash with no message between
// them, one after a short computation and one after a long one.  The
// failure is the one at the smaller instruction count, whichever rank
// has it; the other rank is killed, its later crash forgotten.
func TestVerdictEarliestTrapWins(t *testing.T) {
	for early := int32(0); early < 2; early++ {
		late := 1 - early
		im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
			initRank(m, f)
			onRank(f, early, func() { spin(f, 100); wildLoad(f) })
			onRank(f, late, func() { spin(f, 5000); wildLoad(f) })
			f.CallArgs("MPI_Finalize")
		})
		res := repeatVerdict(t, func() Job { return Job{Image: im, Size: 3} })
		if res.HangDetected {
			t.Fatalf("early=%d: hang %q", early, res.HangCause)
		}
		tr := res.Ranks[early].Trap
		if tr == nil || tr.Kind != vm.TrapSegv || res.FirstFailure() != tr {
			t.Fatalf("early=%d: the first failure must be rank %d's crash:\n%s", early, early, outcome(res))
		}
		wantKilled(t, res, int(late), 2)
	}
}

// TestVerdictSnapshotsAddNoSchedulingPoint: rank 0 computes past several
// of its snapshot clocks before it sends to rank 2, and rank 1 crashes
// early.  Taking the snapshots holds rank 0 nowhere, so the job is the one
// without them: rank 1's crash is the verdict, rank 0 is killed where the
// plain run kills it, with every snapshot it passed taken, and rank 2
// where it waits.
func TestVerdictSnapshotsAddNoSchedulingPoint(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() { spin(f, 10_000); send(f, 2) })
		onRank(f, 1, func() { spin(f, 1000); wildLoad(f) })
		onRank(f, 2, func() { recv(f, 0) })
		f.CallArgs("MPI_Finalize")
	})
	const spacing = 5000 // inside rank 0's loop, past rank 1's crash
	res := repeatVerdict(t, func() Job {
		return Job{Image: im, Size: 3, Checkpoints: CheckpointSpec{Interval: spacing}}
	})
	if tr := res.FirstFailure(); res.HangDetected || tr == nil || tr != res.Ranks[1].Trap || tr.Kind != vm.TrapSegv {
		t.Fatalf("want rank 1's crash as the verdict:\n%s", outcome(res))
	}
	wantKilled(t, res, 0, 2)
	if plain := Run(Job{Image: im, Size: 3}); outcome(plain) != outcome(res) {
		t.Fatalf("taking snapshots changed the verdict:\n%s--- without:\n%s", outcome(res), outcome(plain))
	}
	if n := len(res.Snapshots[0]); n < 2 || uint64(n+1)*spacing <= res.Ranks[0].Instrs {
		t.Errorf("rank 0 took %d snapshots and stopped at %d, want every one it passed", n, res.Ranks[0].Instrs)
	}
}

// TestJobMetricsExact: the scheduler's own numbers — switches, and the
// peak queue depth, counted at each enqueue — are functions of the job
// like everything else, so two runs report the same snapshot.
func TestJobMetricsExact(t *testing.T) {
	im := buildRing(t, 4)
	snapshot := func() telemetry.Snapshot {
		reg := telemetry.New()
		mustExitClean(t, Run(Job{Image: im, Size: 4, Metrics: reg}))
		return reg.Snapshot()
	}
	a, b := snapshot(), snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs of one job report different metrics:\n%+v\n%+v", a, b)
	}
	if a.Counters[telemetry.MetricSchedSwitches] < 8 || a.Gauges[telemetry.MetricQueueDepthPeak] < 1 {
		t.Errorf("switches %d, queue peak %d: a four-rank ring must switch and queue",
			a.Counters[telemetry.MetricSchedSwitches], a.Gauges[telemetry.MetricQueueDepthPeak])
	}
}
