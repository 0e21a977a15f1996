package cluster

import (
	"sync/atomic"

	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// Ghost peers.  A job that RunSolo could not decide runs whole, but only
// the rank the fault is in executes from the start.  Every other rank is a
// ghost: a cursor on its tape from the recorded run, with no machine.  The
// scheduler resumes it at the clocks the tape recorded, and it crosses the
// world as the rank did: it delivers the recorded sends, applies the
// recorded writes, opens and context allocations, and pulls from its real
// queue, waiting where the rank would wait — a pull on an empty queue, a
// send to a full one.  Until the world hands a rank something its tape does
// not hold, the rank is executing the recorded run, so the ghost's clocks
// and scheduling points are the rank's, and the schedule, the verdict and
// every output are the all-live job's.
//
// A ghost materializes the moment the world departs from its tape: the
// packet at its queue head is not the tape's next TapeRecv (other bytes, or
// another packet first), or the fd an open or the base a context allocation
// would get is not the recorded one.  The rank is then restored from the
// latest snapshot that has not passed that event (t=0 when there is none),
// replays its tape silently up to it (mpi.Proc.Rejoin) and runs live from
// there, the differing event included.  A ghost never traps; one that
// reaches its tape's end exits as the rank did in the recorded run.

// Ghosts starts every rank of a job but one as a ghost of a recorded run.
type Ghosts struct {
	// Live is the rank that executes from the start.
	Live int
	// Golden is the recorded run (Job.RecordTapes) the job's start point
	// is a cut of: each ghost follows its rank's tape from there and, at
	// the tape's end, ends as that rank did.
	Golden *Result
	// Snapshots are Golden's checkpoints a ghost may materialize from;
	// none: from t=0.
	Snapshots []*Snapshot
}

// ghost is a rank's cursor on its tape: tape[from:pos] is what it has
// crossed since its job started, and clock the rank's clock at the last.
type ghost struct {
	tape      mpi.Tape
	from, pos int
	clock     uint64
}

// newGhost returns the cursor of a rank standing where rs left it (nil:
// t=0) on tape.
func newGhost(tape mpi.Tape, rs *RankSnapshot) *ghost {
	g := &ghost{tape: tape}
	if rs != nil {
		g.from, g.pos, g.clock = rs.TapePos, rs.TapePos, rs.VM.Instrs()
	}
	return g
}

// recorded is what the rank would have recorded in the job so far.
func (g *ghost) recorded() mpi.Tape { return g.tape[g.from:g.pos:g.pos] }

// haunt is the body of a rank started as a ghost.
func (job *Job) haunt(rk *rank, stop *atomic.Bool) {
	g, p := rk.ghost, rk.proc
	for g.pos < len(g.tape) {
		ev := &g.tape[g.pos]
		g.clock = ev.Instrs
		var ok bool
		switch ev.Kind {
		case mpi.TapeSend:
			if ok = uint(ev.Arg) < uint(job.Size); ok {
				g.pos++ // a live rank records a send before it may wait
				if !p.GhostSend(ev.Arg, ev.Data) {
					return
				}
				continue
			}
		case mpi.TapeRecv:
			var alive bool
			if ok, alive = p.GhostRecv(ev.Data); !alive {
				return
			}
		case mpi.TapeWrite:
			ok = rk.io.write(ev.Arg, ev.Data)
		case mpi.TapeOpen:
			ok = rk.io.files.openAs(string(ev.Data), ev.Ret)
		case mpi.TapeCtx:
			ok = p.GhostCtx(ev.Arg, ev.Ret)
		}
		if !ok {
			job.materialize(rk, stop)
			return
		}
		g.pos++
	}
	end := &job.Ghosts.Golden.Ranks[rk.id]
	g.clock, rk.out = end.Instrs, vm.RunResult{Reason: end.Reason, Trap: end.Trap}
}

// materialize makes ghost rk execute from its cursor on.
func (job *Job) materialize(rk *rank, stop *atomic.Bool) {
	g := rk.ghost
	var rs *RankSnapshot
	pos := 0
	for _, s := range job.Ghosts.Snapshots {
		if at := &s.Ranks[rk.id]; !at.Finished && at.TapePos <= g.pos {
			rs, pos = at, at.TapePos
		}
	}
	rk.proc.Rejoin(g.tape, pos, g.pos, g.from)
	rk.embody(job, rs, stop)
	rk.out = rk.m.Run(job.Budget)
}
