package cluster

import (
	"bytes"
	"slices"
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
// send to a full one.
//
// A rank whose receives all name a source consumes one FIFO stream per
// sender, and how those streams interleave changes none of its
// instructions, clocks or outputs (DESIGN.md §3.4).  So its ghost pulls in
// arrival order, as the rank does, but checks each packet against its own
// sender's stream: a packet from the sender of the tape's next TapeRecv
// must be that pull's bytes; one from another sender must be that
// sender's next recorded pull, and is set aside until the cursor reaches
// it.  While the streams are the recorded ones the rank is executing the
// recorded run, so the ghost's clocks and scheduling points are the
// rank's, and the schedule, the verdict and every output are the all-live
// job's.  A rank whose recorded run posted a receive naming no source
// (mpi.TapeAny) is followed in arrival order: its queue head must be the
// tape's next pull.
//
// A ghost materializes the moment the world departs from its tape: a
// packet that is not its sender's next recorded pull, an fd or a context
// base that is not the recorded one — or, when it would wait, a packet set
// aside that its rank pulled at this clock from the source it awaited
// there: the rank could have ended that wait without the packet the ghost
// waits for.  The packets set aside go back to the head of its queue, the
// rank is restored from the latest snapshot that has not passed the event
// (t=0 when there is none), replays its tape silently up to it
// (mpi.Proc.Rejoin) and runs live from there, the differing event
// included.  A ghost never traps; one that reaches its tape's end exits as
// the rank did in the recorded run.

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
	// aside are the packets pulled ahead of their turn, in arrival order.
	aside []pulled
	// claimed[s] is one past the last of sender s's pulls aside stands
	// for; nil until a packet first arrives out of turn, and then arrival
	// tells whether the rank is followed in arrival order.
	claimed []int
	arrival bool
}

// pulled is a packet taken from the queue for the pull at tape[at].
type pulled struct {
	raw []byte
	at  int
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
func (g *ghost) recorded() mpi.Tape {
	t := g.tape[g.from:g.pos:g.pos]
	for _, a := range g.aside {
		t = append(t, g.tape[a.at])
	}
	return t
}

// pull takes the packet of the TapeRecv at the cursor.  ok is false when
// the rank must materialize instead, with what it pulled left in aside;
// alive is false when the job is being torn down.
func (g *ghost) pull(p *mpi.Proc, size int) (ok, alive bool) {
	ev := &g.tape[g.pos]
	if k := slices.IndexFunc(g.aside, func(a pulled) bool { return a.at == g.pos }); k >= 0 {
		g.aside = slices.Delete(g.aside, k, k+1)
		return true, true
	}
	for {
		ended := g.completes(ev)
		raw, alive := p.GhostPull(!ended)
		if raw == nil {
			return false, alive
		}
		// The rank answers a rendezvous packet the moment it pulls one, so
		// the ghost pulls those only where the rank would.
		answered := mpi.Answered(raw)
		src := mpi.RawSource(raw)
		if src == mpi.RawSource(ev.Data) || g.inArrivalOrder(size) {
			if bytes.Equal(raw, ev.Data) && !(ended && answered) {
				return true, true
			}
		} else if j := g.next(src); j >= 0 && !answered && bytes.Equal(raw, g.tape[j].Data) {
			g.aside = append(g.aside, pulled{raw, j})
			continue
		}
		g.aside = append(g.aside, pulled{raw, -1})
		return false, true
	}
}

// inArrivalOrder reports whether the rank's recorded run posted a receive
// that names no source, looking once.
func (g *ghost) inArrivalOrder(size int) bool {
	if g.claimed == nil {
		g.claimed = make([]int, size)
		g.arrival = slices.ContainsFunc(g.tape, func(ev mpi.TapeEvent) bool { return ev.Kind == mpi.TapeAny })
	}
	return g.arrival
}

// next claims sender src's next recorded pull past the cursor that no
// packet aside stands for, and returns its index, -1 when there is none.
// Each sender's claims scan the tape forward once.
func (g *ghost) next(src int) int {
	if uint(src) >= uint(len(g.claimed)) {
		return -1
	}
	for j := max(g.claimed[src], g.pos+1); j < len(g.tape); j++ {
		if ev := &g.tape[j]; ev.Kind == mpi.TapeRecv && mpi.RawSource(ev.Data) == src {
			g.claimed[src] = j + 1
			return j
		}
	}
	return -1
}

// completes reports whether a packet aside could end the wait the rank is
// in at ev: the rank pulled it at ev's clock, from the source it awaited
// there.
func (g *ghost) completes(ev *mpi.TapeEvent) bool {
	for _, a := range g.aside {
		if g.tape[a.at].Instrs == ev.Instrs && (ev.Ret < 0 || mpi.RawSource(a.raw) == int(ev.Ret)) {
			return true
		}
	}
	return false
}

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
			if ok, alive = g.pull(p, job.Size); !alive {
				return
			}
		case mpi.TapeWrite:
			ok = rk.io.write(ev.Arg, ev.Data)
		case mpi.TapeOpen:
			ok = rk.io.files.openAs(string(ev.Data), ev.Ret)
		case mpi.TapeCtx:
			ok = p.GhostCtx(ev.Arg, ev.Ret)
		case mpi.TapeAny:
			ok = true
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

// materialize makes ghost rk execute from its cursor on, with the packets
// it pulled ahead of their turn back at the head of its queue.
func (job *Job) materialize(rk *rank, stop *atomic.Bool) {
	g := rk.ghost
	raws := make([][]byte, len(g.aside))
	for k, a := range g.aside {
		raws[k] = a.raw
	}
	rk.proc.GhostUnpull(raws)
	g.aside = nil
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
