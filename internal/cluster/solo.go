package cluster

import (
	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// SoloResult is what running one rank alone against its tape established
// about the whole job.
type SoloResult struct {
	// Trap is the job's verdict when the tape proves one, nil when it does
	// not.  A clean exit (TrapExit, code 0) means the rank consumed its
	// whole tape with every output matched: no rank saw anything but the
	// recorded run, so the job ends as that run did.  Any other trap was
	// raised while the rank was still on its tape — until that instruction
	// every peer saw the recorded run, so it is the job's first failure,
	// the one Result.FirstFailure reports when the peers are only ever
	// killed.  nil covers everything else: an output that is not the
	// recorded one, a pull the tape cannot serve, an exit that leaves tape
	// or carries a nonzero code, the budget.  The job must then be run
	// whole, the peers as ghosts (Job.Ghosts).
	Trap *vm.Trap
	// Hang is set when the rank starved and blocked for good, having said
	// nothing new (mpi.Proc.Blocked): the job's verdict is a distributed
	// deadlock, and Trap is what that verdict kills the rank with.
	Hang bool
	// Instrs is the rank's retired-instruction count when it stopped, and
	// Pos how many events of the tape it had got through.
	Instrs uint64
	Pos    int
}

// RunSolo executes rank alone, on the caller's goroutine, with tape —
// that rank's recording from the run job.Restore was captured in, or from
// any recorded run of the job when starting at t=0 — standing in for every
// other rank: no peer machines, coroutines, queues or scheduler.  Of the
// job it uses Image, Size, MPIConfig, Budget, Restore, Setup, Tracer and
// Metrics; Setup may set the rank's Starve.
func RunSolo(job Job, rank int, tape mpi.Tape) SoloResult {
	var rs *RankSnapshot
	pos := 0
	if job.Restore != nil {
		rs = &job.Restore.Ranks[rank]
		pos = rs.TapePos
	}
	proc := mpi.NewReplayProc(job.Size, job.MPIConfig, rank, tape, pos)
	m := job.newRank(rank, proc, &rankIO{proc: proc}, rs)
	out := m.Run(job.Budget)

	left, departed := proc.Replayed()
	res := SoloResult{Trap: out.Trap, Instrs: m.Instrs, Pos: len(tape) - left, Hang: proc.Blocked()}
	switch {
	case departed || out.Reason == vm.StopBudget:
		res.Trap = nil
	case out.Trap.Kind == vm.TrapExit:
		if out.Trap.Code != 0 || left > 0 {
			res.Trap = nil
		}
	}
	if reg := job.Metrics; reg != nil {
		reg.Counter(telemetry.MetricJobs).Inc()
		reg.Counter(telemetry.MetricInstrsRetired).Add(m.Instrs)
		if res.Hang {
			reg.Counter(telemetry.HangMetric(Deadlock)).Inc()
		}
	}
	return res
}
