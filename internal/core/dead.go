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
		if c.readIndex(rank).ws.LastAccess(site.At) <= m.Instrs {
			return deadUnread
		}
	}
	return notDead
}

// rankReads is what one golden rank reads and when: the working set of a
// fault-free replay of its tape, and the last PCs it retired — the flight
// record of any run of the rank that ends as the golden run did.  once
// builds it (readIndex).
type rankReads struct {
	once    sync.Once
	ws      *trace.WorkingSetTracer
	lastPCs []uint32
}

// readsTracer feeds one replay to the working-set trace and the flight
// recorder.
type readsTracer struct {
	*trace.WorkingSetTracer
	rec *vm.FlightRecorder
}

func (t readsTracer) Exec(pc uint32) {
	t.WorkingSetTracer.Exec(pc)
	t.rec.Exec(pc)
}

// readIndex returns rank's rankReads, replaying the rank alone on its golden
// tape from t=0 the first time any experiment of any campaign sharing the
// golden run asks.
func (c *campaignCtx) readIndex(rank int) *rankReads {
	g := c.golden
	r := &g.reads[rank]
	r.once.Do(func() {
		ws := trace.New()
		rec := vm.NewFlightRecorder(forensicsDepth)
		job := cluster.Job{
			Image: c.cfg.Image, Size: c.cfg.Ranks, MPIConfig: c.cfg.MPIConfig,
			Budget: g.Instrs[rank] + 1, Metrics: c.cfg.Metrics, DisableSuperblocks: c.cfg.DisableSuperblocks,
			Tracer: readsTracer{ws, rec}, TraceRank: rank,
		}
		if c.built != nil {
			job.Setup = func(_ int, m *vm.Machine, _ *mpi.Proc) { c.built(m) }
		}
		res := cluster.RunSolo(job, rank, g.tapes[rank])
		if res.Trap == nil || res.Trap.Kind != vm.TrapExit || res.Instrs != g.Instrs[rank] {
			panic(fmt.Sprintf("core: rank %d's fault-free replay stopped at %d instructions (%v); the golden run exited at %d",
				rank, res.Instrs, res.Trap, g.Instrs[rank]))
		}
		c.met.readIndexInstrs.Add(res.Instrs)
		r.ws, r.lastPCs = ws, rec.LastPCs()
	})
	return r
}

// replayEnd fills rec with the golden rank's last PCs.
func (r *rankReads) replayEnd(rec *vm.FlightRecorder) {
	rec.Reset()
	for _, pc := range r.lastPCs {
		rec.Exec(pc)
	}
}
