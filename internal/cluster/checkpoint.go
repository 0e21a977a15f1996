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
// Capture works by cooperative pausing.  The caller supplies cut vectors
// (per-rank retired-instruction targets, one vector per checkpoint,
// nondecreasing).  Each rank runs to its target and parks at a phase
// barrier, a scheduling point; the last arriver — every peer is parked
// or terminally finished — captures all ranks and the Channel queues,
// then releases the barrier.  The vectors must be
// *consistent cuts* of the recorded execution (no receive before its
// matching send; see mpi.Causality): pausing at such a cut can
// never deadlock, because no parked rank's progress is required for a
// peer to reach its own target.

// CheckpointSpec asks a job to emit checkpoints at the given cuts.
type CheckpointSpec struct {
	// Vectors[k][r] is rank r's retired-instruction pause target for
	// checkpoint k.  Vectors must be nondecreasing per rank across k and
	// each must be a consistent cut of the execution.
	Vectors [][]uint64
	// OnSnapshot receives each captured checkpoint, in order, from inside
	// the capture section (the world is quiescent during the call).
	OnSnapshot func(k int, s *Snapshot)
}

// RankSnapshot is one rank's state inside a checkpoint.  A rank that
// exited before the cut carries its terminal RankResult instead of live
// machine state.
type RankSnapshot struct {
	VM  *vm.Snapshot
	MPI *mpi.ProcSnapshot
	// TapePos is how many events of its tape the rank had recorded at the
	// cut (capture passes with Job.RecordTapes): where RunSolo resumes.
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

// TotalInstrs sums the retired-instruction counts across ranks — the work
// a job restored from this checkpoint does not repeat.
func (s *Snapshot) TotalInstrs() uint64 {
	var n uint64
	for r := 0; r < s.Size; r++ {
		n += s.RankInstrs(r)
	}
	return n
}

// MaxQueued returns the deepest per-rank queue in the snapshot, for
// sizing the restored world's Channel queues.
func (s *Snapshot) MaxQueued() int {
	max := 0
	for _, q := range s.Queues {
		if len(q) > max {
			max = len(q)
		}
	}
	return max
}

// ckptRun coordinates the phase barrier and capture during a
// checkpoint-emitting job.
type ckptRun struct {
	spec     *CheckpointSpec
	world    *mpi.World
	ranks    []*rank
	files    *fileStore
	heapBase uint32
	budget   uint64

	phase     int // next unfired checkpoint index
	arrived   int
	finishedN int
}

// runRank executes a rank through every checkpoint phase and then to
// completion, returning the terminal outcome exactly as m.Run would.
func (c *ckptRun) runRank(rk *rank) vm.RunResult {
	for k := 0; k < len(c.spec.Vectors); k++ {
		t := c.spec.Vectors[k][rk.id]
		if c.budget != 0 && t >= c.budget {
			break // the final run below handles budget exhaustion
		}
		out := rk.m.Run(t)
		if out.Reason != vm.StopBudget {
			return c.finishRank(rk, out)
		}
		if !c.arrive(rk, k) {
			return rk.killed()
		}
	}
	return c.finishRank(rk, rk.m.Run(c.budget))
}

// arrive parks the rank at the phase-k barrier until the last arriver has
// captured; false means the job was killed meanwhile.
func (c *ckptRun) arrive(rk *rank, k int) bool {
	c.arrived++
	if c.arrived+c.finishedN == len(c.ranks) {
		c.capture(k)
		return true
	}
	rk.parked = true
	return rk.proc.Yield()
}

// finishRank records the rank's terminal outcome.  If it was the last
// rank the current phase was waiting on, its exit completes the barrier.
// A killed rank completes nothing: the job is over.
func (c *ckptRun) finishRank(rk *rank, out vm.RunResult) vm.RunResult {
	if out.Trap != nil && out.Trap.Kind == vm.TrapKilled {
		return out
	}
	rk.out, rk.done = out, true
	c.finishedN++
	if c.arrived > 0 && c.arrived+c.finishedN == len(c.ranks) {
		c.capture(c.phase)
	}
	return out
}

// capture snapshots the whole job as checkpoint k and releases the
// barrier.  Every rank but the caller's is parked or finished.
func (c *ckptRun) capture(k int) {
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
		if rk.done {
			rs.Finished = true
			rs.Result = rk.result(c.heapBase)
		} else {
			rs.VM = rk.m.Snapshot()
			rs.MPI = rk.proc.Snapshot()
			rs.TapePos = len(rk.proc.Tape())
		}
		s.Queues[r] = c.world.DrainQueue(r)
	}
	s.Files = make(map[string][]byte, len(c.files.files))
	for name, b := range c.files.files {
		s.Files[name] = append([]byte(nil), b...)
	}
	s.FileNames = append([]string(nil), c.files.names...)
	if c.spec.OnSnapshot != nil {
		c.spec.OnSnapshot(k, s)
	}
	c.arrived = 0
	c.phase = k + 1
	for _, rk := range c.ranks {
		rk.parked = false
	}
}
