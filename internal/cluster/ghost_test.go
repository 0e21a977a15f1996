package cluster

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"mpifault/internal/abi"
	"mpifault/internal/asm"
	"mpifault/internal/image"
	"mpifault/internal/isa"
	"mpifault/internal/mpi"
	"mpifault/internal/telemetry"
	"mpifault/internal/vm"
)

// A job whose peers are ghosts must be the job with every rank live: the
// same schedule, verdict, outputs and tapes.  Each directed case below
// also checks that the shape it names happened.

// verdict is outcome with each rank's traffic, and without the pc of a
// killed rank: a ghost has none.
func verdict(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "hang=%v %q first=%v\n", res.HangDetected, res.HangCause, res.FirstFailure())
	for r, rr := range res.Ranks {
		trap := fmt.Sprint(rr.Trap)
		if rr.Trap != nil && rr.Trap.Kind == vm.TrapKilled {
			trap = "killed"
		}
		fmt.Fprintf(&b, "rank %d: reason=%d trap=%s instrs=%d %+v\n", r, rr.Reason, trap, rr.Instrs, rr.Stats)
	}
	return b.String()
}

// sameStreams compares tapes as far as the rank fixes them: its outputs
// event by event, and the packets it pulled sender by sender.  How
// several senders' packets interleave among its pulls, and the clock and
// awaited source of each pull, follow the order they arrived in, which a
// ghost need not keep (DESIGN.md §3.4).
func sameStreams(a, b []mpi.Tape) bool {
	if len(a) != len(b) {
		return false
	}
	for r := range a {
		if !reflect.DeepEqual(splitTape(a[r]), splitTape(b[r])) {
			return false
		}
	}
	return true
}

// tapeStreams is a tape split into its outputs and, per sender, the
// packets it pulled.
type tapeStreams struct {
	outputs mpi.Tape
	pulls   map[int][][]byte
}

func splitTape(tape mpi.Tape) tapeStreams {
	s := tapeStreams{pulls: map[int][][]byte{}}
	for _, ev := range tape {
		if ev.Kind == mpi.TapeRecv {
			src := mpi.RawSource(ev.Data)
			s.pulls[src] = append(s.pulls[src], ev.Data)
		} else {
			s.outputs = append(s.outputs, ev)
		}
	}
	return s
}

// haunted runs job with every rank a ghost of rec but live, which is one
// up to restore (nil: from t=0), and with every rank live from t=0,
// requires the two to agree, and returns both.  The schedule is compared
// through the job's metrics: every one but the retired instructions,
// which a ghost does not add to.
func haunted(t *testing.T, job Job, live int, rec *Result, restore *RankSnapshot) (got, want *Result) {
	t.Helper()
	run := func(g *Ghosts) (*Result, telemetry.Snapshot) {
		reg := telemetry.New()
		job.Metrics, job.Ghosts = reg, g
		res := Run(job)
		snap := reg.Snapshot()
		delete(snap.Counters, telemetry.MetricInstrsRetired)
		return res, snap
	}
	want, wantMetrics := run(nil)
	got, gotMetrics := run(&Ghosts{Live: live, Restore: restore, Golden: rec, Snapshots: rec.Snapshots})
	if a, b := verdict(got), verdict(want); a != b {
		t.Fatalf("with ghosts:\n%s--- all live:\n%s", a, b)
	}
	if !reflect.DeepEqual(got.Stdout, want.Stdout) || !reflect.DeepEqual(got.Stderr, want.Stderr) ||
		!bytes.Equal(got.CanonicalOutput(), want.CanonicalOutput()) {
		t.Errorf("outputs differ:\n%q\n--- all live:\n%q", got.CanonicalOutput(), want.CanonicalOutput())
	}
	if !sameStreams(got.Tapes, want.Tapes) {
		t.Error("the recorded tapes differ")
	}
	if !reflect.DeepEqual(gotMetrics, wantMetrics) {
		t.Errorf("the schedules differ:\n%+v\n--- all live:\n%+v", gotMetrics, wantMetrics)
	}
	if got.Ranks[live].Ghost {
		t.Errorf("rank %d was to run live", live)
	}
	if restore != nil && got.Ranks[live].From != restore.Instrs() {
		t.Errorf("rank %d started at clock %d, want its snapshot's %d", live, got.Ranks[live].From, restore.Instrs())
	}
	return got, want
}

// recordRun runs the fault-free job with tapes and, when spec asks for
// them, snapshots: the recorded run ghosts follow.
func recordRun(t *testing.T, job Job, spec CheckpointSpec) *Result {
	t.Helper()
	job.RecordTapes, job.Checkpoints = true, spec
	rec := Run(job)
	mustExitClean(t, rec)
	return rec
}

// lastEvent returns the index of the last event of tape satisfying ok.
func lastEvent(t *testing.T, tape mpi.Tape, ok func(ev *mpi.TapeEvent) bool) int {
	t.Helper()
	for i := len(tape) - 1; i >= 0; i-- {
		if ok(&tape[i]) {
			return i
		}
	}
	t.Fatal("the recorded tape has no such event")
	return -1
}

// dataTo reports whether ev is a send of a payload to rank dst.
func dataTo(dst int32) func(ev *mpi.TapeEvent) bool {
	return func(ev *mpi.TapeEvent) bool {
		return ev.Kind == mpi.TapeSend && ev.Arg == dst && len(ev.Data) > mpi.HeaderBytes
	}
}

// overwrite arms job to store v into the guest word sym on rank at clock.
func overwrite(job *Job, im *image.Image, rank int, clock uint64, sym string, v uint32) {
	s, _ := im.Lookup(sym)
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == rank {
			m.TriggerAt = clock
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Store32(s.Addr, v); return nil }
		}
	}
}

// TestGhostNeverMaterializes: peers of a rank that changes nothing they
// see stay ghosts — to their tapes' ends when the rank runs clean, killed
// where they wait when it crashes.
func TestGhostNeverMaterializes(t *testing.T) {
	im := buildRing(t, 8)
	job := Job{Image: im, Size: 4, Budget: 10_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	const live = 1
	clean, _ := haunted(t, job, live, rec, nil)
	mustExitClean(t, clean)
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == live {
			m.TriggerAt = rec.Ranks[live].Instrs / 2
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.SP] = 0x10; return nil }
		}
	}
	crashed, _ := haunted(t, job, live, rec, nil)
	if tr := crashed.FirstFailure(); tr == nil || tr.Kind != vm.TrapSegv {
		t.Fatalf("want rank %d's crash, got:\n%s", live, verdict(crashed))
	}
	for _, res := range []*Result{clean, crashed} {
		for r, rr := range res.Ranks {
			if r != live && !rr.Ghost {
				t.Errorf("rank %d materialized", r)
			}
		}
	}
}

// TestGhostPacketsSurviveRecvHook: a ghost hands its tape's own bytes to
// the Channel, so the injection hook of the rank that pulls them flips a
// copy, and the recorded run later jobs follow keeps its bytes.
func TestGhostPacketsSurviveRecvHook(t *testing.T) {
	job := Job{Image: buildRing(t, 8), Size: 4, Budget: 10_000_000}
	rec := recordRun(t, job, CheckpointSpec{})
	pristine := make([]mpi.Tape, len(rec.Tapes))
	for r, tape := range rec.Tapes {
		for _, ev := range tape {
			ev.Data = slices.Clone(ev.Data)
			pristine[r] = append(pristine[r], ev)
		}
	}
	const live = 1
	flips := 0
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == live {
			p.RecvHook = func(pkt []byte) { pkt[len(pkt)-1] ^= 1; flips++ }
		}
	}
	job.Ghosts = &Ghosts{Live: live, Golden: rec}
	Run(job)
	if flips == 0 {
		t.Fatal("rank 1 pulled nothing")
	}
	if !reflect.DeepEqual(rec.Tapes, pristine) {
		t.Error("the hook flipped bytes of the recorded tapes")
	}
}

// pulls returns the payload-carrying packets a tape pulled, in order.
func pulls(tape mpi.Tape) (p [][]byte) {
	for _, ev := range tape {
		if ev.Kind == mpi.TapeRecv && len(ev.Data) > mpi.HeaderBytes {
			p = append(p, ev.Data)
		}
	}
	return p
}

// reorderedTo2 builds the job of TestGhostStaysOnReorder, records it, and
// arms the fault that delays rank 0.  wildcard makes rank 2 post a receive
// that names no source after the two it reorders.
func reorderedTo2(t *testing.T, wildcard bool) (Job, *Result) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		// Rank 0 spins before MPI_Finalize so that, in the recorded run,
		// its barrier token reaches rank 2 after rank 1's packet.
		onRank(f, 0, func() { spin(f, 300); send(f, 3); send(f, 2); spin(f, 1000) })
		onRank(f, 1, func() { spin(f, 600); recv(f, 2); send(f, 2) })
		onRank(f, 2, func() {
			spin(f, 500)
			send(f, 1)
			recv(f, 0)
			recv(f, 1)
			if wildcard {
				recv(f, abi.AnySource)
			}
		})
		onRank(f, 3, func() {
			recv(f, 0)
			if wildcard {
				send(f, 2)
			}
		})
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 4, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	// Inside rank 0's loop, its counter turned back by 4000 iterations.
	at := rec.Tapes[0][firstEvent(t, rec.Tapes[0], func(i int) bool { return dataTo(3)(&rec.Tapes[0][i]) })].Instrs - 100
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 0 {
			m.TriggerAt = at
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.R4] -= 4000; return nil }
		}
	}
	return job, rec
}

// TestGhostStaysOnReorder: the fault only delays rank 0 on its way to a
// scheduling point, so rank 1 is resumed first and rank 2 is sent the
// packets it was sent in the recorded run, in the other order.  Each is
// its sender's next, and rank 1's comes at a clock at which rank 2 waits
// for rank 0, so rank 2 stays a ghost.
func TestGhostStaysOnReorder(t *testing.T) {
	job, rec := reorderedTo2(t, false)
	res, live := haunted(t, job, 0, rec, nil)
	mustExitClean(t, res)
	if !res.Ranks[2].Ghost {
		t.Fatalf("rank 2 materialized:\n%s", verdict(res))
	}
	got, want := pulls(live.Tapes[2]), pulls(rec.Tapes[2])
	if len(got) != 2 || len(want) != 2 || !bytes.Equal(got[0], want[1]) || !bytes.Equal(got[1], want[0]) {
		t.Errorf("live, rank 2 pulled %d packets, want the recorded two in the other order", len(got))
	}

	// The same delay, and then rank 0 crashes between its two sends: the
	// job ends with rank 1's packet set aside by rank 2's ghost, which is
	// killed as the live rank is, with that packet among its pulls.
	tape := rec.Tapes[0]
	to3 := firstEvent(t, tape, func(i int) bool { return dataTo(3)(&tape[i]) })
	to2 := firstEvent(t, tape, func(i int) bool { return dataTo(2)(&tape[i]) })
	crashAt := (tape[to3].Instrs+tape[to2].Instrs)/2 + 12000
	delay := job.Setup
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		delay(r, m, p)
		if r == 0 {
			fn := m.TriggerFn
			m.TriggerFn = func(m *vm.Machine) *vm.Trap {
				m.TriggerAt = crashAt
				m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.SP] = 0x10; return nil }
				return fn(m)
			}
		}
	}
	res, _ = haunted(t, job, 0, rec, nil)
	if tr := res.FirstFailure(); tr == nil || tr.Kind != vm.TrapSegv || !res.Ranks[2].Ghost || len(pulls(res.Tapes[2])) != 1 {
		t.Fatalf("want rank 0's crash with rank 2 a ghost holding rank 1's packet:\n%s", verdict(res))
	}
}

// TestGhostWildcardKeepsArrivalOrder: the reorder of TestGhostStaysOnReorder
// to a rank that also posts a receive naming no source; what that
// receive matches can depend on the order, so the rank materializes on the
// first packet out of turn, and its tape is the all-live rank's.
func TestGhostWildcardKeepsArrivalOrder(t *testing.T) {
	job, rec := reorderedTo2(t, true)
	if !slices.ContainsFunc(rec.Tapes[2], func(ev mpi.TapeEvent) bool { return ev.Kind == mpi.TapeAny }) {
		t.Fatal("rank 2's tape holds no wildcard receive")
	}
	clean := job
	clean.Setup = nil
	if res, _ := haunted(t, clean, 0, rec, nil); !res.Ranks[2].Ghost {
		t.Fatalf("without the fault, rank 2 materialized:\n%s", verdict(res))
	}
	res, live := haunted(t, job, 0, rec, nil)
	mustExitClean(t, res)
	if res.Ranks[2].Ghost {
		t.Fatalf("rank 2 must materialize:\n%s", verdict(res))
	}
	if !reflect.DeepEqual(res.Tapes[2], live.Tapes[2]) {
		t.Error("rank 2's tape differs from the all-live job's")
	}
}

// TestGhostMaterializesOnEarlyAwaited: rank 2 waits for rank 1, and in the
// recorded run pulled rank 0's packet first.  The fault delays rank 0, so
// rank 1's packet comes first: the rank would finish its wait without
// rank 0's, which the ghost's tape pulls first, so it materializes there.
func TestGhostMaterializesOnEarlyAwaited(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() { spin(f, 300); send(f, 2) })
		onRank(f, 1, func() { spin(f, 600); send(f, 2) })
		onRank(f, 2, func() { recv(f, 1); spin(f, 100); recv(f, 0) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 3, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	tape := rec.Tapes[2]
	first := firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeRecv })
	if ev := &tape[first]; mpi.RawSource(ev.Data) != 0 || ev.Ret != 1 || tape[first+1].Instrs != ev.Instrs {
		t.Fatalf("rank 2 was to pull rank 0's packet first, waiting for rank 1: %+v", *ev)
	}
	at := rec.Tapes[0][firstEvent(t, rec.Tapes[0], func(i int) bool { return dataTo(2)(&rec.Tapes[0][i]) })].Instrs - 100
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 0 {
			m.TriggerAt = at
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.R4] -= 4000; return nil }
		}
	}
	res, live := haunted(t, job, 0, rec, nil)
	mustExitClean(t, res)
	if res.Ranks[2].Ghost {
		t.Fatalf("rank 2 must materialize:\n%s", verdict(res))
	}
	if !reflect.DeepEqual(res.Tapes[2], live.Tapes[2]) {
		t.Error("rank 2's tape differs from the all-live job's")
	}
}

// TestGhostMaterializesOnEarlyDifferent: rank 3 waits for rank 0, which
// waits for live rank 2.  The fault makes rank 2 send its two packets to
// rank 3 before the one rank 0 waits for, the second changed, so both
// reach rank 3 before rank 0's: the first is set aside, and the second,
// not rank 2's next recorded pull, materializes the ghost at once, with
// both back at the head of its queue in the order they came.
func TestGhostMaterializesOnEarlyDifferent(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		m.BSS("early", 4)
		m.BSS("buf2", 64)
		onRank(f, 0, func() { recv(f, 2); spin(f, 1000); send(f, 3); send(f, 2) })
		onRank(f, 2, func() {
			early, late := f.NewLabel(), f.NewLabel()
			f.LdSym(isa.R0, "early", 0)
			f.Cmpi(isa.R0, 0)
			f.Bne(early)
			send(f, 0)
			recv(f, 0)
			f.Label(early)
			send(f, 3)
			f.CallArgs("MPI_Send", asm.Sym("buf2"), asm.Imm(1), asm.Imm(abi.DTInt32),
				asm.Imm(3), asm.Imm(5), asm.Imm(abi.CommWorld))
			f.LdSym(isa.R0, "early", 0)
			f.Cmpi(isa.R0, 0)
			f.Beq(late)
			send(f, 0)
			f.Label(late)
		})
		onRank(f, 3, func() { recv(f, 0); recv(f, 2); recv(f, 2) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 4, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	early, _ := im.Lookup("early")
	buf2, _ := im.Lookup("buf2")
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 2 {
			m.TriggerAt = 1
			m.TriggerFn = func(m *vm.Machine) *vm.Trap {
				m.Store32(early.Addr, 1)
				m.Store32(buf2.Addr, 0xdeadbeef)
				return nil
			}
		}
	}
	res, live := haunted(t, job, 2, rec, nil)
	if res.Ranks[3].Ghost || !res.Ranks[0].Ghost {
		t.Fatalf("rank 3, and only rank 3, must materialize:\n%s", verdict(res))
	}
	if !reflect.DeepEqual(res.Tapes[3], live.Tapes[3]) {
		t.Error("rank 3's tape differs from the all-live job's")
	}
	got := pulls(live.Tapes[3])
	if len(got) != 3 || mpi.RawSource(got[0]) != 2 || mpi.RawSource(got[1]) != 2 {
		t.Errorf("live, rank 3 pulled %d packets, want rank 2's two before rank 0's", len(got))
	}
}

// TestGhostRendezvousInTurn: rank 2 has a receive of rank 1's rendezvous
// message posted while it waits for rank 0, and in the recorded run pulled
// the RTS after rank 0's packet, in its later wait.  The fault delays rank
// 0 on its way to a scheduling point, so the RTS comes first: the rank
// answers it as it pulls it, at the earlier clock, so the ghost may not
// set it aside, and materializes.
func TestGhostRendezvousInTurn(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		m.BSS("big", 2048)
		m.BSS("req", 4)
		m.BSS("st", 12)
		onRank(f, 0, func() { spin(f, 300); send(f, 3); send(f, 2) })
		onRank(f, 1, func() {
			send(f, 3)
			spin(f, 400)
			send(f, 3)
			spin(f, 200)
			f.CallArgs("MPI_Send", asm.Sym("big"), asm.Imm(300), asm.Imm(abi.DTInt32),
				asm.Imm(2), asm.Imm(6), asm.Imm(abi.CommWorld))
		})
		onRank(f, 2, func() {
			f.CallArgs("MPI_Irecv", asm.Sym("big"), asm.Imm(300), asm.Imm(abi.DTInt32),
				asm.Imm(1), asm.Imm(6), asm.Imm(abi.CommWorld), asm.Sym("req"))
			recv(f, 0)
			spin(f, 100)
			f.CallArgs("MPI_Wait", asm.Sym("req"), asm.Sym("st"))
		})
		onRank(f, 3, func() { recv(f, 0); recv(f, 1); recv(f, 1) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 4, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{})
	tape := rec.Tapes[2]
	rts := firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeRecv && tape[i].Data[4] == mpi.KindRTS })
	if first := firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeRecv }); first > rts || mpi.RawSource(tape[first].Data) != 0 {
		t.Fatal("rank 2 was to pull rank 0's packet before the RTS")
	}
	at := rec.Tapes[0][firstEvent(t, rec.Tapes[0], func(i int) bool { return dataTo(3)(&rec.Tapes[0][i]) })].Instrs - 100
	job.Setup = func(r int, m *vm.Machine, p *mpi.Proc) {
		if r == 0 {
			m.TriggerAt = at
			m.TriggerFn = func(m *vm.Machine) *vm.Trap { m.Regs[isa.R4] -= 4000; return nil }
		}
	}
	res, live := haunted(t, job, 0, rec, nil)
	mustExitClean(t, res)
	if res.Ranks[2].Ghost {
		t.Fatalf("rank 2 must materialize:\n%s", verdict(res))
	}
	if !reflect.DeepEqual(res.Tapes[2], live.Tapes[2]) {
		t.Error("rank 2's tape differs from the all-live job's")
	}
}

// TestGhostMaterializesFromLaterSnapshot: rank 2 computes through most of
// the run and then receives a packet the fault changed.  The faulted rank
// 0 starts from its first snapshot, a ghost until there, and rank 2
// materializes from the last of its own before its receive.
func TestGhostMaterializesFromLaterSnapshot(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() { spin(f, 6000); send(f, 2) })
		onRank(f, 1, func() { spin(f, 6000) })
		onRank(f, 2, func() { spin(f, 6000); recv(f, 0) })
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 3, Budget: 1_000_000, RecordTapes: true}
	rec := recordRun(t, job, CheckpointSpec{Interval: 2000})
	if len(rec.Snapshots[0]) < 2 || len(rec.Snapshots[2]) < 2 {
		t.Fatalf("%d and %d snapshots", len(rec.Snapshots[0]), len(rec.Snapshots[2]))
	}
	overwrite(&job, im, 0, rec.Tapes[0][lastEvent(t, rec.Tapes[0], dataTo(2))].Instrs-100, "buf", 0xdeadbeef)
	res, _ := haunted(t, job, 0, rec, &rec.Snapshots[0][0])
	snaps := rec.Snapshots[2]
	if from := res.Ranks[2].From; res.Ranks[2].Ghost || from != snaps[len(snaps)-1].Instrs() {
		t.Fatalf("rank 2 materialized from clock %d, want its last snapshot's %d:\n%s",
			from, snaps[len(snaps)-1].Instrs(), verdict(res))
	}
}

// TestGhostBlockedOnFullQueue: ghost rank 0 streams packets into the
// one-slot queue of live rank 1, which computes first: the ghost waits for
// room as the rank would, and materializes on the answer the fault
// changed.
func TestGhostBlockedOnFullQueue(t *testing.T) {
	im := buildProgram(t, func(m *asm.Module, f *asm.Func) {
		initRank(m, f)
		onRank(f, 0, func() {
			for i := 0; i < 6; i++ {
				send(f, 1)
			}
			recv(f, 1)
		})
		onRank(f, 1, func() {
			spin(f, 3000)
			for i := 0; i < 6; i++ {
				recv(f, 0)
			}
			send(f, 0)
		})
		f.CallArgs("MPI_Finalize")
	})
	job := Job{Image: im, Size: 2, Budget: 1_000_000, RecordTapes: true, MPIConfig: mpi.Config{QueueDepth: 1}}
	rec := recordRun(t, job, CheckpointSpec{})
	tape := rec.Tapes[1]
	reply := lastEvent(t, tape, dataTo(0))
	last := lastEvent(t, tape[:reply], func(ev *mpi.TapeEvent) bool { return ev.Kind == mpi.TapeRecv })
	// Between rank 1's last pull and its reply.
	overwrite(&job, im, 1, (tape[last].Instrs+tape[reply].Instrs)/2, "buf", 0xdeadbeef)
	res, _ := haunted(t, job, 1, rec, nil)
	if res.Ranks[0].Ghost {
		t.Fatalf("rank 0 must materialize on the changed reply:\n%s", verdict(res))
	}
	// Its sends went out before rank 1 pulled any: it waited on every one
	// but the first.
	sends := 0
	for _, ev := range rec.Tapes[0] {
		if dataTo(1)(&ev) && ev.Instrs < tape[firstEvent(t, tape, func(i int) bool { return tape[i].Kind == mpi.TapeRecv })].Instrs {
			sends++
		}
	}
	if sends != 6 {
		t.Errorf("%d of rank 0's sends precede rank 1's first pull, want all 6", sends)
	}
}

// FuzzTapeReplay: whatever a recorded tape is edited into — a flipped
// byte, another kind, scalar or answer, an event dropped, repeated or
// moved, the tape cut short — the rank run alone against it, and the job
// in which it is a ghost of it, end: in a trap, a departure, a
// materialization or a verdict, within the budget, never in a panic or a
// wait.
func FuzzTapeReplay(f *testing.F) {
	const size, budget = 6, 2_000_000
	job := Job{Image: buildCommFiles(f), Size: size, Budget: budget, WallLimit: 10 * time.Second}
	job.RecordTapes, job.Checkpoints = true, CheckpointSpec{Interval: 40}
	rec := Run(job)
	if rec.FailureSummary() != "" || len(rec.Snapshots) == 0 {
		f.Fatalf("the recording failed or took no snapshot: %q", rec.FailureSummary())
	}
	job.RecordTapes, job.Checkpoints = false, CheckpointSpec{}

	// The directed departures of TestRunSoloDepartures and TestTapeDepartures,
	// on rank 0, which allocates the contexts and opens, writes and sends.
	const (
		opFlip = iota
		opKind
		opArg
		opRet
		opDrop
		opRepeat
		opCut
		opSwap
		opNone
	)
	tape := rec.Tapes[0]
	at := func(ok func(ev *mpi.TapeEvent) bool) uint16 {
		return uint16(firstEvent(f, tape, func(i int) bool { return ok(&tape[i]) }))
	}
	kind := func(k mpi.TapeKind) func(ev *mpi.TapeEvent) bool {
		return func(ev *mpi.TapeEvent) bool { return ev.Kind == k }
	}
	payload := func(ev *mpi.TapeEvent) bool { return ev.Kind == mpi.TapeSend && len(ev.Data) > mpi.HeaderBytes }
	sendThenRecv := uint16(firstEvent(f, tape, func(i int) bool {
		return i+1 < len(tape) && tape[i].Kind == mpi.TapeSend && tape[i+1].Kind == mpi.TapeRecv
	}))
	for _, s := range []struct {
		op      uint8
		at, arg uint16
	}{
		{opFlip, at(payload), mpi.HeaderBytes}, // a flipped payload byte in a send
		{opArg, at(kind(mpi.TapeSend)), 1},     // a send to another rank
		{opSwap, sendThenRecv, 0},              // a send and a receive reordered
		{opKind, at(kind(mpi.TapeRecv)), uint16(mpi.TapeSend)},
		{opFlip, at(kind(mpi.TapeOpen)), 0}, // another file name
		{opArg, at(kind(mpi.TapeWrite)), 1}, // the wrong fd
		{opFlip, at(kind(mpi.TapeWrite)), 0},
		{opArg, at(kind(mpi.TapeCtx)), 1}, // another context count
		{opCut, uint16(len(tape) / 2), 0}, // the tape exhausted
		{opRepeat, uint16(len(tape) - 1), 0},
		{opNone, 0, 0},
	} {
		f.Add(uint8(0), s.op, s.at, s.arg)
	}
	// Two senders' packets pulled in the other order.
	swapped := false
	for r := 0; r < size && !swapped; r++ {
		tape := rec.Tapes[r]
		for i := 0; i+1 < len(tape) && !swapped; i++ {
			a, b := &tape[i], &tape[i+1]
			if swapped = a.Kind == mpi.TapeRecv && b.Kind == mpi.TapeRecv && mpi.RawSource(a.Data) != mpi.RawSource(b.Data); swapped {
				f.Add(uint8(r), uint8(opSwap), uint16(i), uint16(0))
			}
		}
	}
	if !swapped {
		f.Fatal("no tape pulls two senders' packets in a row")
	}
	f.Fuzz(func(t *testing.T, rank, op uint8, at, arg uint16) {
		r := int(rank) % size
		tape := append(mpi.Tape(nil), rec.Tapes[r]...)
		if len(tape) == 0 {
			return
		}
		i := int(at) % len(tape)
		ev := &tape[i]
		switch op % (opNone + 1) {
		case opFlip:
			if len(ev.Data) > 0 {
				ev.Data = append([]byte(nil), ev.Data...)
				ev.Data[int(arg)%len(ev.Data)] ^= byte(arg>>8) | 1
			}
		case opKind:
			ev.Kind = mpi.TapeKind(arg)
		case opArg:
			ev.Arg += int32(int16(arg)) | 1
		case opRet:
			ev.Ret += int32(int16(arg)) | 1
		case opDrop:
			tape = append(tape[:i], tape[i+1:]...)
		case opRepeat:
			tape = append(tape[:i+1], tape[i:]...)
		case opCut:
			tape = tape[:i]
		case opSwap:
			if i+1 < len(tape) {
				tape[i], tape[i+1] = tape[i+1], tape[i]
			}
		}

		if solo := RunSolo(job, r, tape, nil); solo.Instrs > budget {
			t.Errorf("alone, rank %d ran %d instructions past its budget", r, solo.Instrs)
		}
		golden := *rec
		golden.Tapes = append([]mpi.Tape(nil), rec.Tapes...)
		golden.Tapes[r] = tape
		g := job
		live := (r + 1) % size
		g.Ghosts = &Ghosts{Live: live, Golden: &golden, Snapshots: rec.Snapshots}
		if snaps := rec.Snapshots[live]; len(snaps) > 0 && arg%2 == 1 {
			g.Ghosts.Restore = &snaps[int(arg/2)%len(snaps)]
		}
		res := Run(g)
		if res.HangCause == "wall-clock limit" {
			t.Fatalf("the job with rank %d a ghost of the edited tape did not end:\n%s", r, verdict(res))
		}
		for q, rr := range res.Ranks {
			if rr.Trap == nil && rr.Reason != vm.StopBudget || rr.Instrs > budget {
				t.Errorf("rank %d ended neither in a trap nor at the budget:\n%s", q, verdict(res))
			}
		}
	})
}
