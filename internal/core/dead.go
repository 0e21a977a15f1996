package core

import (
	"fmt"
	"sync"

	"mpifault/internal/cluster"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/trace"
	"mpifault/internal/vm"
)

// Dead at injection (DESIGN.md §3.4): right after a solo run's trigger
// flips its bit, the experiment stops if nothing can read that bit again.
// Until something reads it, every instruction the rank executes is the
// golden run's, so the rank ends as the golden run did and the experiment
// is Correct.  Three rules prove "nothing reads it":
//
//   - deadUnread: the golden rank never fetches or loads the flipped byte's
//     8-byte line after the trigger — the paper's working set (§6.1.2),
//     read off a traced replay of the rank (readIndex).
//   - deadFPTag: the flip is in an FP data register tagged Empty or Zero.
//     Every read of a register's value is under a Valid or Special tag, and
//     the instructions that set such a tag write the value first.
//   - deadWriteOnly: the bit is one no instruction reads (isa.FlagsReadableBits,
//     isa.SWDTopMask).
type deadRule uint8

const (
	notDead deadRule = iota
	deadUnread
	deadFPTag
	deadWriteOnly
	numDeadRules
)

// deadRuleNames label mpifault_solo_dead_total.
var deadRuleNames = [numDeadRules]string{"", "unread", "fp_tag", "write_only"}

// deadAt returns the rule by which nothing the machine executes after now,
// nor the host on its behalf, reads the bits site names on rank; notDead
// when no rule applies.
func (c *campaignCtx) deadAt(m *vm.Machine, rank int, site Site) deadRule {
	switch site.Kind {
	case SiteWriteOnly:
		return deadWriteOnly
	case SiteFPData:
		if tag := m.FP.Tag(int(site.At)); tag == isa.TagEmpty || tag == isa.TagZero {
			return deadFPTag
		}
	case SiteMemory:
		if c.readIndex(rank).LastAccess(site.At) <= m.Instrs {
			return deadUnread
		}
	}
	return notDead
}

// rankReads is what one golden rank reads and how it ends: the working set
// of a fault-free replay of its tape (readIndex), and the last PCs it
// retired — the flight record of any run of the rank that ends as the
// golden run did (replayEnd).  Each is built the first time any experiment
// of any campaign sharing the golden run asks.
type rankReads struct {
	index, end sync.Once
	ws         *trace.WorkingSetTracer
	lastPCs    []uint32
}

// readIndex returns rank's working set, replaying the rank alone on its
// golden tape from t=0.
func (c *campaignCtx) readIndex(rank int) *trace.WorkingSetTracer {
	r := &c.golden.reads[rank]
	r.index.Do(func() {
		r.ws = trace.New()
		job := cluster.Job{Tracer: r.ws, Metrics: c.cfg.Metrics}
		if c.built != nil {
			job.Setup = func(_ int, m *vm.Machine, _ *mpi.Proc) { c.built(m) }
		}
		c.replayGolden(job, rank, nil)
		c.met.readIndexInstrs.Add(c.golden.Instrs[rank])
	})
	return r.ws
}

// replayEnd fills rec with the golden rank's last PCs, replaying the rank
// from the latest snapshot at least the ring's depth before its end.  That
// replay is the flight recorder's cost, and like the recorder it is left
// out of the campaign's instruction counts.
func (c *campaignCtx) replayEnd(rank int, rec *vm.FlightRecorder) {
	g := c.golden
	r := &g.reads[rank]
	r.end.Do(func() {
		end := vm.NewFlightRecorder(forensicsDepth)
		var rs *cluster.RankSnapshot
		if k := c.indexForInstr(rank, g.Instrs[rank]); k >= 0 {
			rs = &c.snaps[rank][k]
		}
		c.replayGolden(cluster.Job{Tracer: end}, rank, rs)
		r.lastPCs = end.LastPCs()
	})
	rec.Reset()
	for _, pc := range r.lastPCs {
		rec.Exec(pc)
	}
}

// replayGolden runs rank alone and fault-free on its golden tape, from rs
// (nil: t=0), with job's Tracer, Setup and Metrics, to its exit.
func (c *campaignCtx) replayGolden(job cluster.Job, rank int, rs *cluster.RankSnapshot) {
	g := c.golden
	job.Image, job.Size, job.MPIConfig = c.cfg.Image, c.cfg.Ranks, g.mpiCfg
	job.Budget, job.TraceRank = g.Instrs[rank]+1, rank
	res := cluster.RunSolo(job, rank, g.tapes[rank], rs)
	if res.Trap == nil || res.Trap.Kind != vm.TrapExit || res.Instrs != g.Instrs[rank] {
		panic(fmt.Sprintf("core: rank %d's fault-free replay stopped at %d instructions (%v); the golden run exited at %d",
			rank, res.Instrs, res.Trap, g.Instrs[rank]))
	}
}
