package cluster

import (
	"sync"

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
// barrier; the last arriver — with every peer either parked or terminally
// finished, so nothing in the world is executing — captures all ranks and
// the Channel queues, then releases the barrier.  The vectors must be
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
	machines []*vm.Machine
	ios      []*rankIO
	files    *fileStore
	heapBase uint32
	budget   uint64

	mu        sync.Mutex
	cond      *sync.Cond
	phase     int // next unfired checkpoint index
	arrived   int
	finishedN int
	finished  []bool
	outcomes  []vm.RunResult
}

func newCkptRun(spec *CheckpointSpec, world *mpi.World, machines []*vm.Machine,
	ios []*rankIO, files *fileStore, heapBase uint32, budget uint64) *ckptRun {
	c := &ckptRun{
		spec: spec, world: world, machines: machines, ios: ios, files: files,
		heapBase: heapBase, budget: budget,
		finished: make([]bool, len(machines)),
		outcomes: make([]vm.RunResult, len(machines)),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// runRank executes rank r through every checkpoint phase and then to
// completion, returning the terminal outcome exactly as m.Run would.
func (c *ckptRun) runRank(r int) vm.RunResult {
	m := c.machines[r]
	for k := 0; k < len(c.spec.Vectors); k++ {
		t := c.spec.Vectors[k][r]
		if c.budget != 0 && t >= c.budget {
			break // the final run below handles budget exhaustion
		}
		out := m.Run(t)
		if out.Reason != vm.StopBudget {
			c.finishRank(r, out)
			return out
		}
		c.arrive(k)
	}
	out := m.Run(c.budget)
	c.finishRank(r, out)
	return out
}

// arrive parks rank r at the phase-k barrier; the last arriver captures.
func (c *ckptRun) arrive(k int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arrived++
	if c.arrived+c.finishedN == len(c.machines) {
		c.captureLocked(k)
		c.arrived = 0
		c.phase = k + 1
		c.cond.Broadcast()
		return
	}
	for c.phase <= k {
		c.cond.Wait()
	}
}

// finishRank records rank r's terminal outcome.  If r was the last rank
// the current phase was waiting on, its exit completes the barrier.
func (c *ckptRun) finishRank(r int, out vm.RunResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished[r] = true
	c.outcomes[r] = out
	c.finishedN++
	if c.arrived > 0 && c.arrived+c.finishedN == len(c.machines) {
		c.captureLocked(c.phase)
		c.arrived = 0
		c.phase++
		c.cond.Broadcast()
	}
}

// captureLocked snapshots the whole quiescent job as checkpoint k.
// Callers hold c.mu; every rank is either parked in arrive, blocked on
// this mutex inside finishRank, or already finished, so no machine or
// queue is concurrently mutated.
func (c *ckptRun) captureLocked(k int) {
	n := len(c.machines)
	s := &Snapshot{
		Size:       n,
		Ranks:      make([]RankSnapshot, n),
		Queues:     make([][][]byte, n),
		CtxCounter: c.world.CtxCounter(),
	}
	for r := 0; r < n; r++ {
		rs := &s.Ranks[r]
		rs.Stdout = append([]byte(nil), c.ios[r].stdout...)
		rs.Stderr = append([]byte(nil), c.ios[r].stderr...)
		if c.finished[r] {
			rs.Finished = true
			rs.Result = c.terminalResult(r)
		} else {
			rs.VM = c.machines[r].Snapshot()
			rs.MPI = c.world.Proc(r).Snapshot()
			rs.TapePos = len(c.world.Proc(r).Tape())
		}
		s.Queues[r] = c.world.DrainQueue(r)
	}
	c.files.mu.Lock()
	s.Files = make(map[string][]byte, len(c.files.files))
	for name, b := range c.files.files {
		s.Files[name] = append([]byte(nil), b...)
	}
	s.FileNames = append([]string(nil), c.files.names...)
	c.files.mu.Unlock()
	if c.spec.OnSnapshot != nil {
		c.spec.OnSnapshot(k, s)
	}
}

// terminalResult mirrors Run's end-of-job collection for one rank.
func (c *ckptRun) terminalResult(r int) RankResult {
	m := c.machines[r]
	out := c.outcomes[r]
	return RankResult{
		Trap:         out.Trap,
		Reason:       out.Reason,
		Instrs:       m.Instrs,
		MinSP:        m.MinSP,
		HeapPeakUser: m.Heap.PeakUser,
		HeapPeakMPI:  m.Heap.PeakMPI,
		HeapUsed:     m.Heap.Brk() - c.heapBase,
		Stats:        c.ios[r].proc.Stats,
	}
}
