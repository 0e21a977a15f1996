package core

import (
	"sync/atomic"

	"mpifault/internal/classify"
	"mpifault/internal/cluster"
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// Solo-rank replay: an experiment first runs the rank its fault lands in
// — the one whose registers or memory are flipped, or the one that
// receives the corrupted packet — alone against its tape from the
// recorded run (mpi.Tape, cluster.RunSolo).  While the rank's outputs
// equal the recording no other rank can have seen the fault, so most
// experiments — the ones the tables call Correct, and the ones that crash
// before saying anything new — are decided at 1/ranks of the cost.  The
// rest are re-run as whole jobs in which the injected rank executes from
// its restore point and every peer is a ghost of the golden run
// (cluster.Ghosts), executing only once the fault reaches it.
//
// A solo run can stop before its rank's exit, Correct: at its injection,
// when nothing reads the flip again (dead.go), or at a later snapshot, back
// in the golden state (converge).  It also decides a Hang: a rank that
// starves — asks for a packet where its tape holds an output, or nothing —
// is fed what its peers still send it (mpi.Deps), and if it then asks for
// more, having said nothing, the job deadlocks.
//
// There is no switch: whole jobs are chosen by what the code observes, and
// a departure is the one case.  Observers ride along: the flight recorder
// is on the injected rank whichever way it runs, and a trace-diff of a run
// decided solo is read off the golden tapes (soloTapes).

// SoloStats counts a campaign's solo runs.
type SoloStats struct {
	// Correct and Failed experiments were decided on the injected rank
	// alone: a clean run matching its whole tape, or a trap on it.
	Correct, Failed uint64
	// Dead of the Correct ones stopped at their injection: nothing reads
	// the flipped bits again (dead.go).  Converged ones stopped at a later
	// snapshot clock, back in the golden state (converge).
	Dead, Converged uint64
	// Deadlock experiments were decided Hang on the injected rank alone: it
	// starved and blocked for good.
	Deadlock uint64
	// Fallback experiments departed from the tape and were re-run as whole
	// jobs.
	Fallback uint64
	// Instrs is the guest instructions the solo runs executed, fallbacks'
	// included; a run stopped early counts up to where it stopped.
	Instrs uint64
	// Peers counts the fallbacks' ranks but the injected one, Materialized
	// those of them the fault reached: they executed, the rest stayed
	// ghosts.
	Peers, Materialized uint64
}

// Decided returns how many experiments the solo runs decided.
func (s SoloStats) Decided() uint64 { return s.Correct + s.Failed + s.Deadlock }

// Attempts returns how many experiments ran solo first.
func (s SoloStats) Attempts() uint64 { return s.Decided() + s.Fallback }

// soloCounters is SoloStats under concurrent workers.
type soloCounters struct {
	correct, failed, dead, converged, deadlock, fallback, instrs, peers, materialized atomic.Uint64
}

func (s *soloCounters) stats() SoloStats {
	return SoloStats{Correct: s.correct.Load(), Failed: s.failed.Load(), Dead: s.dead.Load(),
		Converged: s.converged.Load(), Deadlock: s.deadlock.Load(), Fallback: s.fallback.Load(),
		Instrs: s.instrs.Load(), Peers: s.peers.Load(), Materialized: s.materialized.Load()}
}

// earlyEnd is why a solo run's trigger halted the rank before its exit:
// its flip was dead at injection (dead.go), or the rank converged — it was
// back in the golden state at a snapshot (converge).
type earlyEnd struct {
	dead      deadRule
	converged bool
	// injected is the rank's clock at the injection: the trigger's, or a
	// message fault's pull of its packet.
	injected uint64
}

// converge arms m's trigger at the next clock, past the rank's own and no
// earlier than end.injected, at which the golden run snapshotted rank, to
// compare the rank's machine and runtime there with that snapshot
// (DESIGN.md §3.4 "Converged"); a check that fails re-arms it.  One that
// passes sets end.converged and halts the rank: its state is the golden
// run's, and so are its inputs — the same tape from the same position — so
// the rest of the run is the golden run's.
func (c *campaignCtx) converge(m *vm.Machine, p *mpi.Proc, rank int, end *earlyEnd) {
	if c.snaps == nil {
		return
	}
	from := max(end.injected, m.Instrs+1)
	for k := range c.snaps[rank] {
		rs := &c.snaps[rank][k]
		if rs.Instrs() < from {
			continue
		}
		m.TriggerAt = rs.Instrs()
		m.TriggerFn = func(m *vm.Machine) *vm.Trap {
			if m.Matches(rs.VM) && p.Matches(rs.MPI, rs.TapePos) {
				end.converged = true
				return &vm.Trap{Kind: vm.TrapKilled, PC: m.PC, Msg: "converged"}
			}
			c.converge(m, p, rank, end)
			return nil
		}
		return
	}
}

// runSolo runs e's injected rank alone, from rs (nil: t=0) with job's
// fault armed, and reports whether that decided the experiment;
// e.Outcome and e.Detail are then what the whole job would have produced.
// A trigger that halts the rank early says why in *end; the result is then
// the golden run's end, which the full run would reach.
func (c *campaignCtx) runSolo(e *Experiment, job cluster.Job, rs *cluster.RankSnapshot, end *earlyEnd) (cluster.SoloResult, bool) {
	// A rank still running past the count at which it exited in the
	// recorded run has departed from it.
	job.Budget = c.golden.Instrs[e.Rank] + 1
	var from uint64
	if rs != nil {
		from = rs.Instrs()
		c.skip(from)
	}
	tape := c.golden.tapes[e.Rank]
	setup := job.Setup
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		p.Starve = func(pos int) ([][]byte, bool) { return c.deps().Starved(e.Rank, pos) }
		setup(r, m, p)
	}
	res := cluster.RunSolo(job, e.Rank, tape, rs)
	c.solo.instrs.Add(res.Instrs - from)
	c.met.soloInstrs.Add(res.Instrs - from)
	switch {
	case end.dead != notDead:
		c.solo.dead.Add(1)
		c.met.soloDead[end.dead].Inc()
	case end.converged:
		c.solo.converged.Add(1)
		c.met.soloConverged.Inc()
		c.met.faultLifetime.Observe(res.Instrs - end.injected)
	}
	if end.dead != notDead || end.converged {
		res = cluster.SoloResult{Trap: c.golden.Result.Ranks[e.Rank].Trap, Instrs: c.golden.Instrs[e.Rank], Pos: len(tape)}
	}
	switch {
	case res.Trap == nil:
		c.solo.fallback.Add(1)
		c.met.soloFallback.Inc()
		return res, false
	case res.Hang:
		c.solo.deadlock.Add(1)
		c.met.soloDeadlock.Inc()
		e.Outcome = classify.Hang
		e.Detail = "hang: " + cluster.Deadlock
	case res.Trap.Kind == vm.TrapExit:
		c.solo.correct.Add(1)
		c.met.soloCorrect.Inc()
		e.Outcome = classify.Correct
	default:
		c.solo.failed.Add(1)
		c.met.soloFailed.Inc()
		e.Outcome = classify.Failure(res.Trap)
		e.Detail = res.Trap.Error()
	}
	return res, true
}

// ranWhole accounts for a whole job run for the experiment on rank: the
// snapshot clocks its machines started at are skipped, and in a fallback
// it counts the peers that materialized.
func (c *campaignCtx) ranWhole(rank int, res *cluster.Result) {
	var materialized uint64
	for r := range res.Ranks {
		if rr := &res.Ranks[r]; !rr.Ghost {
			c.skip(rr.From)
			if r != rank {
				materialized++
			}
		}
	}
	if !c.wholeJobs {
		peers := uint64(len(res.Ranks) - 1)
		c.solo.peers.Add(peers)
		c.solo.materialized.Add(materialized)
		c.met.peersMaterialized.Add(materialized)
		c.met.peersGhost.Add(peers - materialized)
	}
}

// soloTapes is what the ranks of the job record when the solo run res of
// rank decides it: each rank's golden events up to where it stops.  The
// rank stops at res.Pos, on its tape all the way.  Every other rank,
// proven to see nothing but the golden run, was never run: it runs to its
// tape's end or, when the rank deadlocked, to its cut (mpi.Deps.Cuts).
func (c *campaignCtx) soloTapes(rank int, res cluster.SoloResult) []mpi.Tape {
	golden := c.golden.tapes
	var cuts []int
	if res.Hang {
		cuts = c.deps().Cuts(rank, res.Pos)
	}
	tapes := make([]mpi.Tape, len(golden))
	for r, t := range golden {
		to := len(t)
		if cuts != nil {
			to = cuts[r]
		} else if r == rank {
			to = res.Pos
		}
		tapes[r] = t[:to]
	}
	return tapes
}

// deps returns the golden run's happens-before index, built by the first
// solo run that starves.
func (c *campaignCtx) deps() *mpi.Deps {
	g := c.golden
	g.depsOnce.Do(func() { g.deps = mpi.NewDeps(g.tapes, g.Result.Needs) })
	return g.deps
}
