// Package cluster runs an MPI job: it instantiates one virtual machine per
// rank, wires each to the MPI runtime, executes all ranks concurrently,
// and watches for the failure modes the paper classifies — crashes
// (a trap on any rank aborts the whole job, as MPICH does), hangs
// (detected by a distributed-deadlock check plus an instruction budget and
// a wall-clock fallback), and detected errors.
package cluster

import (
	"sync"
	"sync/atomic"
	"time"

	"mpifault/internal/image"
	"mpifault/internal/mpi"
	"mpifault/internal/progress"
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
	// WallLimit is the real-time fallback; default 30s.
	WallLimit time.Duration
	// Setup, when non-nil, runs for every rank before execution starts —
	// the fault injector arms triggers and hooks here.
	Setup func(rank int, m *vm.Machine, p *mpi.Proc)
	// Tracer, when non-nil, is attached to rank TraceRank only (the paper
	// instruments "a randomly selected MPI process").
	Tracer    vm.Tracer
	TraceRank int
	// PMPIHook, when non-nil, observes every API-layer MPI call.
	PMPIHook mpi.PMPIHook
	// ProgressDetector, when non-nil, additionally watches the §7-style
	// messages-per-second metric and declares a hang when it collapses.
	ProgressDetector *progress.Config
	// DisableDeadlockDetector turns off the exact stall detection,
	// leaving only the progress metric and wall clock (used by the
	// detector-ablation benchmarks).
	DisableDeadlockDetector bool
	// Metrics, when non-nil, receives job telemetry: retired
	// instructions, traps by signal, budget exhaustions, MPI message
	// and byte counts, hang verdicts by cause, stall events and the
	// peak Channel queue depth.  Aggregation happens once per job (at
	// teardown and on watchdog ticks), never per instruction, so the
	// interpreter hot path is unchanged and a nil Metrics job is
	// byte-identical to one from before this field existed.
	Metrics *telemetry.Registry
	// RecordTapes makes every rank record its tape (mpi.Tape) into
	// Result.Tapes: what RunSolo replays, and what consistent cuts are
	// computed from (golden recording runs only).
	RecordTapes bool
	// Checkpoints, when non-nil, makes the job pause at the given
	// consistent cuts and emit cluster snapshots (see checkpoint.go).
	Checkpoints *CheckpointSpec
	// Restore, when non-nil, starts the job from a cluster snapshot
	// instead of t=0: every live rank resumes mid-stream, exited ranks
	// carry their terminal results, and the snapshot's in-flight packets
	// are requeued.  The snapshot is shared read-only; any number of
	// concurrent jobs may restore from one.
	Restore *Snapshot
	// DisableSuperblocks forces every rank's machine onto the
	// per-instruction interpreter (faultcampaign -no-superblock); the
	// differential CI legs use it to cross-check compiled execution.
	DisableSuperblocks bool
}

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
}

// Result is the outcome of a whole job.
type Result struct {
	Ranks []RankResult
	// HangDetected is set when the deadlock watchdog, instruction budget
	// or wall-clock limit fired.
	HangDetected bool
	// HangCause describes which detector fired.
	HangCause string
	// Stdout and Stderr are per-rank console captures.
	Stdout [][]byte
	Stderr [][]byte
	// Files maps named output files (written via SysOpen) to contents.
	Files map[string][]byte
	// Tapes are the per-rank recordings of a Job.RecordTapes run.
	Tapes []mpi.Tape
}

// FirstFailure returns the most severe trap across ranks, preferring
// application/MPI detections over raw signals so that a deliberate abort
// isn't masked by the cascade of TrapKilled it causes elsewhere.
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

// Run executes the job to completion and returns the collected outcome.
func Run(job Job) *Result {
	if job.WallLimit == 0 {
		job.WallLimit = 30 * time.Second
	}
	mpiCfg := job.MPIConfig
	if job.Restore != nil {
		// Room to requeue the snapshot's in-flight packets on top of
		// whatever the resumed execution itself enqueues.
		mpiCfg = mpiCfg.WithQueueHeadroom(job.Restore.MaxQueued())
	}
	world := mpi.NewWorld(job.Size, mpiCfg)
	if job.RecordTapes {
		world.RecordTapes()
	}
	if job.Restore != nil {
		world.SetCtxCounter(job.Restore.CtxCounter)
	}
	if job.PMPIHook != nil {
		world.SetPMPIHook(job.PMPIHook)
	}

	res := &Result{
		Ranks:  make([]RankResult, job.Size),
		Stdout: make([][]byte, job.Size),
		Stderr: make([][]byte, job.Size),
		Files:  make(map[string][]byte),
	}
	files := &fileStore{files: res.Files}
	if job.Restore != nil {
		for name, b := range job.Restore.Files {
			res.Files[name] = append([]byte(nil), b...)
		}
		files.names = append([]string(nil), job.Restore.FileNames...)
	}

	// stopFlag halts still-computing VMs after a job-level verdict (the
	// analogue of mpirun SIGKILLing survivors).
	var stopFlag atomic.Bool
	killAll := func() {
		stopFlag.Store(true)
		world.Kill()
	}

	machines := make([]*vm.Machine, job.Size)
	ios := make([]*rankIO, job.Size)
	for r := 0; r < job.Size; r++ {
		if job.Restore != nil && job.Restore.Ranks[r].Finished {
			// This rank had already exited at the checkpoint: carry its
			// terminal state over verbatim; no goroutine runs for it.
			rs := &job.Restore.Ranks[r]
			res.Ranks[r] = rs.Result
			res.Stdout[r] = append([]byte(nil), rs.Stdout...)
			res.Stderr[r] = append([]byte(nil), rs.Stderr...)
			world.Proc(r).MarkFinished()
			continue
		}
		machines[r], ios[r] = job.newRank(r, world.Proc(r), files)
		machines[r].Stop = &stopFlag
	}
	if job.Restore != nil {
		// Requeue the snapshot's in-flight packets (deep-copied; see
		// mpi.Prefill) after every rank's runtime state is rebuilt.
		for r := 0; r < job.Size; r++ {
			world.Prefill(r, job.Restore.Queues[r])
		}
	}

	var coord *ckptRun
	if job.Checkpoints != nil && len(job.Checkpoints.Vectors) > 0 &&
		job.Restore == nil {
		coord = newCkptRun(job.Checkpoints, world, machines, ios, files,
			job.Image.HeapBase, job.Budget)
	}

	var (
		wg       sync.WaitGroup
		hangOnce sync.Once
		done     = make(chan struct{})
	)
	declareHang := func(cause string) {
		hangOnce.Do(func() {
			res.HangDetected = true
			res.HangCause = cause
			killAll()
		})
	}

	for r := 0; r < job.Size; r++ {
		if machines[r] == nil {
			continue // restored-as-finished rank
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := machines[r]
			var out vm.RunResult
			if coord != nil {
				out = coord.runRank(r)
			} else {
				out = m.Run(job.Budget)
			}
			world.Proc(r).MarkFinished()
			res.Ranks[r].Reason = out.Reason
			res.Ranks[r].Trap = out.Trap
			if out.Reason == vm.StopBudget {
				// Runaway execution: the paper's non-terminating mode.
				declareHang("instruction budget exceeded")
				return
			}
			if t := out.Trap; t != nil && t.Kind != vm.TrapExit && t.Kind != vm.TrapKilled {
				// Any abnormal termination aborts the whole job, as
				// MPICH's MPI_ERRORS_ARE_FATAL and signal handlers do.
				killAll()
			}
		}(r)
	}

	// Watchdog: fast deadlock detection plus a wall-clock fallback.
	watchdogGone := make(chan struct{})
	go func() {
		defer close(watchdogGone)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		deadline := time.After(job.WallLimit)
		var lastProgress uint64
		consec := 0
		wasStalled := false
		for {
			select {
			case <-done:
				return
			case <-deadline:
				declareHang("wall-clock limit")
				return
			case <-tick.C:
				if reg := job.Metrics; reg != nil {
					// Telemetry piggybacks on the watchdog cadence: the
					// peak Channel queue depth and rank-stall events are
					// sampled here, not in any per-message path.
					var depth int64
					for r := 0; r < job.Size; r++ {
						depth += int64(world.QueueDepth(r))
					}
					reg.Gauge(telemetry.MetricQueueDepthPeak).SetMax(depth)
					stalled := world.Stalled()
					if stalled && !wasStalled {
						reg.Counter(telemetry.MetricStallEvents).Inc()
					}
					wasStalled = stalled
				}
				if job.DisableDeadlockDetector {
					continue
				}
				prog := world.Progress()
				if world.Stalled() && prog == lastProgress {
					consec++
					// An exact deadlock (all blocked, nothing in flight)
					// is certain after a short quiet confirmation.  A
					// stall with packets still in flight is only
					// genuinely stuck when every queued packet sits at a
					// rank that already exited (World.Stuck); after a
					// long quiet period that evidence is trusted.  A
					// stall that is merely a scheduling gap — the packet
					// is queued at a live rank the host has not run yet —
					// never fires, no matter how starved the process is:
					// a time-based verdict here would make campaign
					// outcomes depend on machine load.
					if (consec >= 2 && world.Deadlocked()) ||
						(consec >= 50 && world.Stuck()) {
						declareHang("distributed deadlock")
						return
					}
				} else {
					consec = 0
				}
				lastProgress = prog
			}
		}
	}()

	// Optional §7 progress-metric detector: messages per second.
	if job.ProgressDetector != nil {
		detCfg := *job.ProgressDetector
		if detCfg.Metrics == nil {
			detCfg.Metrics = job.Metrics
		}
		mon := progress.NewMonitor(detCfg, world.Progress)
		go func() {
			if mon.Run(done) {
				declareHang("progress metric collapse")
			}
		}()
	}

	wg.Wait()
	close(done)
	// With the ranks and the watchdog (the only reader of queue depths)
	// joined, the inboxes can serve the next job.
	<-watchdogGone
	world.Release()

	for r := 0; r < job.Size; r++ {
		m := machines[r]
		if m == nil {
			continue // restored-as-finished rank: results carried above
		}
		res.Ranks[r].Instrs = m.Instrs
		res.Ranks[r].MinSP = m.MinSP
		res.Ranks[r].HeapPeakUser = m.Heap.PeakUser
		res.Ranks[r].HeapPeakMPI = m.Heap.PeakMPI
		res.Ranks[r].HeapUsed = m.Heap.Brk() - job.Image.HeapBase
		res.Ranks[r].Stats = ios[r].proc.Stats
		res.Stdout[r] = ios[r].stdout
		res.Stderr[r] = ios[r].appendSignalBanner(res.Ranks[r].Trap)
	}
	if job.RecordTapes {
		res.Tapes = make([]mpi.Tape, job.Size)
		for r := range res.Tapes {
			res.Tapes[r] = world.Proc(r).Tape()
		}
	}
	if job.Metrics != nil {
		recordJobMetrics(job.Metrics, res)
	}
	return res
}

// newRank builds live rank r — its machine, from the image or from the
// job's Restore snapshot, wired to its syscall handler and to proc, with
// the job's tracer and Setup applied.  Run and RunSolo share it.
func (job *Job) newRank(r int, proc *mpi.Proc, files *fileStore) (*vm.Machine, *rankIO) {
	var m *vm.Machine
	io := &rankIO{proc: proc, files: files}
	if job.Restore != nil {
		rs := &job.Restore.Ranks[r]
		m = rs.VM.NewMachine()
		proc.Restore(rs.MPI)
		io.stdout = append([]byte(nil), rs.Stdout...)
		io.stderr = append([]byte(nil), rs.Stderr...)
	} else {
		m = vm.New(job.Image)
	}
	if job.DisableSuperblocks {
		m.DisableSuperblocks()
	}
	m.Handler = io
	if job.Tracer != nil && r == job.TraceRank {
		m.Tracer = job.Tracer
	}
	if job.Setup != nil {
		job.Setup(r, m, proc)
	}
	return m, io
}

// recordJobMetrics aggregates a finished job into the registry.  It
// runs once per job, after every rank goroutine has joined, so it reads
// the terminal state without synchronization concerns and costs nothing
// on the execution path the paper's timings depend on.
func recordJobMetrics(reg *telemetry.Registry, res *Result) {
	reg.Counter(telemetry.MetricJobs).Inc()
	var instrs, ctrl, data, hdr, payload uint64
	for r := range res.Ranks {
		rr := &res.Ranks[r]
		instrs += rr.Instrs
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
	sortStrings(names)
	for _, n := range names {
		out = append(out, '\f')
		out = append(out, []byte(n)...)
		out = append(out, '\n')
		out = append(out, r.Files[n]...)
	}
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
