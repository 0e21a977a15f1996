package cluster

import (
	"mpifault/internal/mpi"
	"mpifault/internal/vm"
)

// Cluster checkpointing: a checkpoint is a *consistent global state* of a
// job — every rank's full machine and MPI runtime state plus every
// in-flight packet — captured while all ranks are quiescent.  A later job
// restored from it is indistinguishable, to the guest, from one that ran
// from t=0.
//
// A job takes its snapshots as it runs.  One rank executes at a time, so
// any moment between two resumes is a consistent cut — the queues hold
// exactly what is in flight — but a rank suspended inside the MPI runtime
// keeps a collective's or a rendezvous' progress on its Go stack, where no
// snapshot reaches: every unfinished rank has to be between two guest
// instructions.  A rank is there at a syscall's exit, and wherever its
// machine is told to stop.  So each rank runs one spacing on from the last
// snapshot and parks; when every unfinished rank is parked the job is
// captured and all are released.  A rank that cannot get that far — it
// waits inside a syscall for a packet from a parked rank, or for room in
// one's queue — has that rank released until its next syscall exit, as
// often as it takes, and parks at its own next syscall exit: it advances
// only as the parked ranks do.  The rule reads guest state only, so a
// checkpointing job's schedule is as much a function of the job as any
// other's.

// CheckpointSpec asks a job to snapshot itself as it runs.
type CheckpointSpec struct {
	// Interval is the least virtual time between two snapshots, in retired
	// instructions of the rank that advanced most; 0 takes none.
	Interval uint64
	// Max caps how many snapshots the job keeps, 0 for no cap: one more
	// drops every other one and doubles the spacing, so those kept stay
	// spread over the whole run however long it is.
	Max int
}

// RankSnapshot is one rank's state inside a checkpoint.  A rank that
// exited before the cut carries its terminal RankResult instead of live
// machine state.
type RankSnapshot struct {
	VM  *vm.Snapshot
	MPI *mpi.ProcSnapshot
	// TapePos is how many events of its tape the rank had recorded at the
	// cut (Job.RecordTapes): where RunSolo resumes, and where a restored
	// job's recording of the rank starts.
	TapePos  int
	Finished bool
	Result   RankResult
	Stdout   []byte
	Stderr   []byte
}

// Snapshot is a consistent checkpoint of a whole job.
type Snapshot struct {
	Size  int
	Ranks []RankSnapshot
	// Queues[r] holds the raw packets parked in rank r's Channel queue at
	// the cut, FIFO order.
	Queues [][][]byte
	// CtxCounter is the world's communicator-context allocation counter.
	CtxCounter int64
	// Files and FileNames mirror the job's fileStore (named output files
	// and the fd table order).
	Files     map[string][]byte
	FileNames []string
}

// RankLive reports whether rank r was still executing at the cut.
func (s *Snapshot) RankLive(r int) bool { return !s.Ranks[r].Finished }

// RankInstrs returns rank r's retired-instruction count at the cut (its
// terminal count if it had already exited).
func (s *Snapshot) RankInstrs(r int) uint64 {
	if s.Ranks[r].Finished {
		return s.Ranks[r].Result.Instrs
	}
	return s.Ranks[r].VM.Instrs()
}

// MaxQueued returns the deepest per-rank queue in the snapshot, for
// sizing the restored world's Channel queues.
func (s *Snapshot) MaxQueued() int {
	deepest := 0
	for _, q := range s.Queues {
		deepest = max(deepest, len(q))
	}
	return deepest
}

// ckptRun takes a running job's snapshots.
type ckptRun struct {
	world *mpi.World
	ranks []*rank
	files *fileStore
	job   *Job

	spacing uint64 // CheckpointSpec.Interval, doubled each time the cap is hit
	max     int
	snaps   []*Snapshot
}

// run is rk.m.Run(budget) that also stops where rk's clock reaches rk.due
// — or, released past it, one spacing on — so that a rank inside m.Run
// never runs past the due the next release gives it.
func (c *ckptRun) run(rk *rank, budget uint64) vm.RunResult {
	for {
		limit := rk.due
		if rk.m.Instrs >= limit {
			limit = rk.m.Instrs + c.spacing
		}
		if budget != 0 && budget <= limit {
			return rk.m.Run(budget)
		}
		if out := rk.m.Run(limit); out.Reason != vm.StopBudget {
			return out
		}
		if t := c.park(rk); t != nil {
			return vm.RunResult{Reason: vm.StopTrap, Trap: t}
		}
	}
}

// park is called with rk between two instructions — at a syscall's exit,
// or stopped by run — and holds it there if the next snapshot is to find
// it there.
func (c *ckptRun) park(rk *rank) *vm.Trap {
	if rk.m.Instrs < rk.due && !rk.waited {
		return nil
	}
	rk.parked = true
	if !rk.proc.Yield() {
		return rk.killed().Trap
	}
	return nil
}

// pick is given the rank Run is about to resume (nil when none can run)
// and returns the one to resume instead.
func (c *ckptRun) pick(rk *rank) *rank {
	if rk != nil {
		return rk
	}
	// Only parked ranks can run: find the earliest of them, and of those
	// waiting inside a syscall.
	var first, waiter *rank
	for _, p := range c.ranks {
		switch {
		case p.done:
		case !p.parked:
			p.waited = true
			if waiter == nil || p.before(waiter) {
				waiter = p
			}
		case first == nil || p.before(first):
			first = p
		}
	}
	if first == nil {
		return nil
	}
	if waiter == nil {
		c.capture()
		c.release(c.spacing)
		return first
	}
	// waiter gets to no syscall exit before a parked rank moves on: the
	// one it waits for, directly or through others that wait, when it can
	// tell.  Any other would only run into a wait of its own, and the
	// ranks would leapfrog to the job's end without ever all being parked.
	for range c.ranks {
		peer := waiter.proc.Awaits()
		if uint(peer) >= uint(len(c.ranks)) || c.ranks[peer].done {
			break
		}
		if waiter = c.ranks[peer]; waiter.parked {
			first = waiter
			break
		}
	}
	first.parked = false
	return first
}

// release lets every parked rank go, to park again spacing further on.
func (c *ckptRun) release(spacing uint64) {
	for _, p := range c.ranks {
		p.parked, p.waited, p.due = false, false, p.m.Instrs+spacing
	}
}

// capture snapshots the whole job: every rank is parked or finished.
func (c *ckptRun) capture() {
	n := len(c.ranks)
	s := &Snapshot{
		Size:       n,
		Ranks:      make([]RankSnapshot, n),
		Queues:     make([][][]byte, n),
		CtxCounter: c.world.CtxCounter(),
	}
	for r, rk := range c.ranks {
		rs := &s.Ranks[r]
		rs.Stdout = append([]byte(nil), rk.io.stdout...)
		rs.Stderr = append([]byte(nil), rk.io.stderr...)
		rs.TapePos = len(rk.proc.Tape())
		if rk.done {
			rs.Finished = true
			rs.Result = rk.result(c.job)
		} else {
			rs.VM = rk.m.Snapshot()
			rs.MPI = rk.proc.Snapshot()
		}
		s.Queues[r] = c.world.DrainQueue(r)
	}
	s.Files = make(map[string][]byte, len(c.files.files))
	for name, b := range c.files.files {
		s.Files[name] = append([]byte(nil), b...)
	}
	s.FileNames = append([]string(nil), c.files.names...)

	c.snaps = append(c.snaps, s)
	if c.max > 0 && len(c.snaps) > c.max {
		kept := c.snaps[:0]
		for i := 1; i < len(c.snaps); i += 2 {
			kept = append(kept, c.snaps[i])
		}
		clear(c.snaps[len(kept):])
		c.snaps = kept
		c.spacing *= 2
	}
}
