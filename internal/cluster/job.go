// Package cluster runs an MPI job: it instantiates one virtual machine per
// rank, wires each to the MPI runtime, and executes the ranks one at a
// time under a deterministic virtual-time scheduler (Run), watching for
// the failure modes the paper classifies — crashes (the earliest trap on
// any rank aborts the whole job, as MPICH does), hangs (no rank can run,
// or one exceeds its instruction budget; a wall-clock limit protects the
// host) and detected errors.  A job is a pure function of its Job: the
// same ranks run in the same order to the same verdict on any host.
package cluster

import (
	"slices"
	"sync/atomic"
	"time"

	"mpifault/internal/image"
	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// Job describes one execution of a guest program on N ranks.
type Job struct {
	// Image is the linked guest program (all ranks run the same binary).
	Image *image.Image
	// Size is the number of MPI ranks.
	Size int
	// MPIConfig tunes the runtime (eager threshold, queue depth).
	MPIConfig mpi.Config
	// Budget bounds each rank's retired instructions; exceeding it is
	// classified as a hang (the livelock analogue of the paper's "one
	// minute beyond expected completion").  0 means unlimited.
	Budget uint64
	// WallLimit is the host-safety limit on real time, for a guest that
	// spins with no budget.  0 means 30s for a job without a Budget and no
	// limit for one with: its verdict then never reads the host clock.
	WallLimit time.Duration
	// Setup, when non-nil, runs for every rank before execution starts —
	// the fault injector arms triggers and hooks here.
	Setup func(rank int, m *vm.Machine, p *mpi.Proc)
	// Tracer, when non-nil, is attached to rank TraceRank only (the paper
	// instruments "a randomly selected MPI process").
	Tracer    vm.Tracer
	TraceRank int
	// Metrics, when non-nil, receives job telemetry: retired
	// instructions, traps by signal, budget exhaustions, MPI message
	// and byte counts, hang verdicts by cause, scheduler switches and
	// the peak Channel queue depth.  Aggregation happens once per job,
	// at teardown, never per instruction, so the interpreter hot path is
	// unchanged and a nil Metrics job is byte-identical to one from
	// before this field existed.
	Metrics *telemetry.Registry
	// RecordTapes makes every rank record its tape (mpi.Tape) into
	// Result.Tapes, from t=0: what RunSolo replays (the golden run's), and
	// what trace-diff compares with it (an experiment's).
	RecordTapes bool
	// Checkpoints makes every rank of a job without Ghosts snapshot itself
	// into Result.Snapshots as it runs (see checkpoint.go).
	Checkpoints CheckpointSpec
	// Ghosts, when non-nil, starts the ranks as ghosts of a recorded run
	// (ghost.go): all but Ghosts.Live, and that one up to its restore
	// point.  Setup and Tracer reach a ghost when it materializes.
	Ghosts *Ghosts
}

// Deadlock is the hang cause of a job in which no unfinished rank can run.
const Deadlock = "distributed deadlock"

// RankResult is the terminal state of one rank.
type RankResult struct {
	Trap   *vm.Trap
	Reason vm.StopReason
	Instrs uint64
	MinSP  uint32
	// HeapPeakUser/MPI are the allocator's per-owner high-water marks.
	HeapPeakUser uint32
	HeapPeakMPI  uint32
	// HeapUsed is the total extent the heap break ever reached, the
	// denominator for heap working-set percentages.
	HeapUsed uint32
	Stats    mpi.Stats
	// Ghost reports that the rank executed nothing in this job: it stayed
	// a ghost (Job.Ghosts).  Its MinSP and heap marks are then the
	// recorded run's at its end, zero before it.
	Ghost bool
	// From is the instruction count the rank's machine started at: its
	// snapshot's, 0 from the image.  It executed Instrs − From.
	From uint64
}

// Result is the outcome of a whole job.
type Result struct {
	Ranks []RankResult
	// HangDetected is set when no unfinished rank could run, or the
	// instruction budget or the wall-clock limit ended the job.
	HangDetected bool
	// HangCause says which of the three it was.
	HangCause string
	// Stdout and Stderr are per-rank console captures.
	Stdout [][]byte
	Stderr [][]byte
	// Files maps named output files (written via SysOpen) to contents.
	Files map[string][]byte
	// Tapes are the per-rank recordings of a Job.RecordTapes run, and
	// Needs where each rank needed the packets it pulled (mpi.Proc.Needs;
	// nil for a rank that stayed a ghost).
	Tapes []mpi.Tape
	Needs [][]int32
	// Snapshots[r] are rank r's snapshots in a Job.Checkpoints run, in the
	// order taken; their tape positions index Tapes[r].
	Snapshots [][]RankSnapshot
}

// FirstFailure returns the most severe trap across ranks, preferring
// application/MPI detections over raw signals.  Run leaves one trap at
// most on the ranks it executed — the earliest, see there.
func (r *Result) FirstFailure() *vm.Trap {
	var sig *vm.Trap
	for i := range r.Ranks {
		t := r.Ranks[i].Trap
		if t == nil {
			continue
		}
		switch t.Kind {
		case vm.TrapAbort, vm.TrapMPIHandler:
			return t
		case vm.TrapMPIFatal, vm.TrapSegv, vm.TrapIll, vm.TrapFpe:
			if sig == nil {
				sig = t
			}
		}
	}
	return sig
}

// FailureSummary renders the job's terminal condition as one short
// line for logs and campaign journals: the most severe trap, the hang
// verdict, or "" for a clean run.
func (r *Result) FailureSummary() string {
	if t := r.FirstFailure(); t != nil {
		return t.Error()
	}
	if r.HangDetected {
		return "hang: " + r.HangCause
	}
	return ""
}

// rank is one unfinished rank of a running job.
type rank struct {
	id int
	// m is the rank's machine, started at clock from; nil while the rank
	// is a ghost.
	m     *vm.Machine
	from  uint64
	ghost *ghost
	io    *rankIO
	proc  *mpi.Proc
	// out is how the rank's execution ended; done is set once the
	// scheduler has seen it end.
	out  vm.RunResult
	done bool
}

// clock is the rank's virtual time: its retired instructions.
func (rk *rank) clock() uint64 {
	if rk.m == nil {
		return rk.ghost.clock
	}
	return rk.m.Instrs
}

// before orders ranks by virtual time, then rank.
func (a *rank) before(b *rank) bool {
	return a.clock() < b.clock() || a.clock() == b.clock() && a.id < b.id
}

// fatal reports whether the way the rank ended ends the job: the budget,
// or any trap but an exit (MPICH's MPI_ERRORS_ARE_FATAL and its signal
// handlers abort the whole job).
func (rk *rank) fatal() bool {
	if t := rk.out.Trap; t != nil {
		return t.Kind != vm.TrapExit && t.Kind != vm.TrapKilled
	}
	return rk.out.Reason == vm.StopBudget
}

// kill ends a rank the job's verdict overtook, as mpirun SIGKILLs the
// survivors.
func (rk *rank) kill() {
	rk.proc.Kill()
	if rk.done || rk.out.Trap == nil {
		// It had ended later than the verdict, or never began.
		rk.out = rk.killed()
	}
}

// killed is the end of a rank the verdict stops outside the MPI runtime;
// inside it, the scheduling point the rank is suspended in traps.  A
// ghost has no pc to report.
func (rk *rank) killed() vm.RunResult {
	var pc uint32
	if rk.m != nil {
		pc = rk.m.PC
	}
	return vm.RunResult{Reason: vm.StopTrap,
		Trap: &vm.Trap{Kind: vm.TrapKilled, PC: pc, Msg: "job terminated"}}
}

// earliest returns the runnable rank that is first in virtual time and
// before horizon (when non-nil), or nil.
func earliest(ranks []*rank, horizon *rank) *rank {
	var min *rank
	var at uint64
	for _, rk := range ranks {
		if rk.done || !rk.proc.Runnable() {
			continue
		}
		if c := rk.clock(); (min == nil || c < at) && (horizon == nil || rk.before(horizon)) {
			min, at = rk, c
		}
	}
	return min
}

// Run executes the job to completion and returns the collected outcome.
//
// It is a scheduler over rank coroutines, on the caller's goroutine: it
// always resumes the runnable rank that has retired the fewest
// instructions (the lower rank on a tie), and that rank runs until its
// next scheduling point (mpi/sched.go).  The rule reads guest state
// only, so the schedule, every tape and the verdict are the same in
// every run.  A rank's instruction count is its virtual clock, so the
// order also approximates the parallel machine the paper measured.
//
// The job ends when every rank has, or with one of two verdicts.  A
// crash is the earliest fatal end in virtual time: after a rank ends
// fatally, only ranks still before that moment are resumed, and one of
// them ending fatally earlier takes its place; every other rank is then
// killed, the later fatal ones included.  A hang is that earliest end
// being the instruction budget, or — exact, and with no wait — an
// unfinished rank while none is runnable.  WallLimit halts the executing
// machine through Machine.Stop and is checked between resumes.
func Run(job Job) *Result {
	if job.WallLimit == 0 && job.Budget == 0 {
		job.WallLimit = 30 * time.Second
	}
	world := mpi.NewWorld(job.Size, job.MPIConfig)
	if job.RecordTapes {
		world.RecordTapes()
	}
	res := &Result{
		Ranks:  make([]RankResult, job.Size),
		Stdout: make([][]byte, job.Size),
		Stderr: make([][]byte, job.Size),
		Files:  make(map[string][]byte),
	}
	files := &fileStore{files: res.Files}

	// stop halts a machine within 4096 instructions.  Before the verdict
	// only the wall-clock limit sets it.
	var stop atomic.Bool
	if job.WallLimit > 0 {
		defer time.AfterFunc(job.WallLimit, func() { stop.Store(true) }).Stop()
	}

	spec := job.Checkpoints
	if spec.Interval > 0 && job.Ghosts == nil {
		res.Snapshots = make([][]RankSnapshot, job.Size)
	}
	ranks := make([]*rank, job.Size)
	for r := range ranks {
		rk := &rank{id: r, proc: world.Proc(r)}
		rk.io = &rankIO{proc: rk.proc, files: files}
		ranks[r] = rk
		body := func() { rk.out = rk.m.Run(job.Budget) }
		if g := job.Ghosts; g != nil && (r != g.Live || g.Restore != nil) {
			rk.ghost = &ghost{tape: g.Golden.Tapes[r]}
			body = func() { job.haunt(rk, &stop) }
		} else {
			rk.embody(&job, nil, &stop)
			if res.Snapshots != nil {
				body = func() { rk.out = rk.runSnapshotting(job.Budget, spec, &res.Snapshots[r]) }
			}
		}
		rk.proc.Start(body)
	}

	live := job.Size
	var first *rank // the earliest fatal end so far
	switches := uint64(0)
	for live > 0 {
		rk := earliest(ranks, first)
		if rk == nil {
			if first == nil {
				res.HangDetected, res.HangCause = true, Deadlock
			}
			break
		}
		switches++
		running := rk.proc.Resume()
		if stop.Load() {
			// Whether it halted rk or rk got to yield first.
			res.HangDetected, res.HangCause = true, "wall-clock limit"
			break
		}
		if running {
			continue
		}
		rk.done = true
		live--
		if !rk.fatal() {
			continue
		}
		switch {
		case first == nil:
			first = rk
		case first.before(rk):
			rk.kill()
		default:
			first.kill()
			first = rk
		}
	}
	if first != nil && first.out.Reason == vm.StopBudget {
		// Runaway execution: the paper's non-terminating mode.
		res.HangDetected, res.HangCause = true, "instruction budget exceeded"
	}
	// A killed rank that swallows the trap halts at its next poll.
	stop.Store(true)
	for _, rk := range ranks {
		if !rk.done {
			rk.kill()
		}
	}

	for r, rk := range ranks {
		res.Ranks[r] = rk.result(&job)
		res.Stdout[r] = rk.io.stdout
		res.Stderr[r] = rk.io.appendSignalBanner(rk.out.Trap)
	}
	if job.RecordTapes {
		res.Tapes, res.Needs = make([]mpi.Tape, job.Size), make([][]int32, job.Size)
		for r, rk := range ranks {
			if res.Tapes[r], res.Needs[r] = world.Proc(r).Tape(), world.Proc(r).Needs(); rk.m == nil {
				res.Tapes[r], res.Needs[r] = rk.ghost.recorded(), nil
			}
		}
	}
	if reg := job.Metrics; reg != nil {
		recordJobMetrics(reg, res, switches, world.QueuePeak())
	}
	return res
}

// result collects the rank's terminal state.
func (rk *rank) result(job *Job) RankResult {
	m := rk.m
	if m == nil {
		if rk.done { // at its tape's end
			rr := job.Ghosts.Golden.Ranks[rk.id]
			rr.Ghost = true
			return rr
		}
		g := rk.ghost
		st := g.tape.Traffic(g.pos)
		for _, a := range g.aside {
			st.Add(g.tape[a.at : a.at+1].Traffic(1))
		}
		return RankResult{Trap: rk.out.Trap, Reason: rk.out.Reason, Instrs: g.clock, Stats: st, Ghost: true}
	}
	return RankResult{
		Trap:         rk.out.Trap,
		Reason:       rk.out.Reason,
		Instrs:       m.Instrs,
		MinSP:        m.MinSP,
		HeapPeakUser: m.Heap.PeakUser,
		HeapPeakMPI:  m.Heap.PeakMPI,
		HeapUsed:     m.Heap.Brk() - job.Image.HeapBase,
		Stats:        rk.proc.Stats,
		From:         rk.from,
	}
}

// embody gives rk the machine newRank builds from rs (nil: the image).
func (rk *rank) embody(job *Job, rs *RankSnapshot, stop *atomic.Bool) {
	rk.m = job.newRank(rk.id, rk.proc, rk.io, rs)
	rk.m.Stop, rk.from = stop, rk.m.Instrs
}

// newRank builds rank r's machine, from the image or from rs, wired to
// its syscall handler io and to proc (restored from rs), with the job's
// tracer and Setup applied.  Run, RunSolo and a ghost's materialization
// share it.
func (job *Job) newRank(r int, proc *mpi.Proc, io *rankIO, rs *RankSnapshot) *vm.Machine {
	var m *vm.Machine
	if rs != nil {
		m = rs.VM.NewMachine()
		proc.Restore(rs.MPI)
	} else {
		m = vm.New(job.Image)
	}
	m.Handler = io
	if job.Tracer != nil && r == job.TraceRank {
		m.Tracer = job.Tracer
	}
	if job.Setup != nil {
		job.Setup(r, m, proc)
	}
	return m
}

// recordJobMetrics aggregates a finished job into the registry.  It
// runs once per job, after every rank has ended, and costs nothing on
// the execution path the paper's timings depend on.
func recordJobMetrics(reg *telemetry.Registry, res *Result, switches uint64, queuePeak int) {
	reg.Counter(telemetry.MetricJobs).Inc()
	reg.Counter(telemetry.MetricSchedSwitches).Add(switches)
	reg.Gauge(telemetry.MetricQueueDepthPeak).SetMax(int64(queuePeak))
	var instrs, ctrl, data, hdr, payload uint64
	for r := range res.Ranks {
		rr := &res.Ranks[r]
		if !rr.Ghost {
			instrs += rr.Instrs
		}
		ctrl += rr.Stats.ControlMsgs
		data += rr.Stats.DataMsgs
		hdr += rr.Stats.HeaderBytes
		payload += rr.Stats.PayloadBytes
		if rr.Reason == vm.StopBudget {
			reg.Counter(telemetry.MetricBudgetExhausted).Inc()
		}
		if t := rr.Trap; t != nil && t.Kind != vm.TrapExit {
			reg.Counter(telemetry.TrapMetric(t.Kind.String())).Inc()
		}
	}
	reg.Counter(telemetry.MetricInstrsRetired).Add(instrs)
	reg.Counter(telemetry.MetricControlMsgs).Add(ctrl)
	reg.Counter(telemetry.MetricDataMsgs).Add(data)
	reg.Counter(telemetry.MetricHeaderBytes).Add(hdr)
	reg.Counter(telemetry.MetricPayloadBytes).Add(payload)
	if res.HangDetected {
		reg.Counter(telemetry.HangMetric(res.HangCause)).Inc()
	}
}

// CanonicalOutput concatenates the observable application output the
// paper compares against a golden run: rank 0's console plus every named
// output file (written by rank 0 in all three workloads).
func (r *Result) CanonicalOutput() []byte {
	var out []byte
	out = append(out, r.Stdout[0]...)
	// Files in deterministic name order.
	names := make([]string, 0, len(r.Files))
	for n := range r.Files {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		out = append(out, '\f')
		out = append(out, []byte(n)...)
		out = append(out, '\n')
		out = append(out, r.Files[n]...)
	}
	return out
}
